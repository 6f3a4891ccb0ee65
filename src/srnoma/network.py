"""Geometry and random channel generation for the two-phase backscatter network.

Scene: a multi-antenna base station (BS) at the origin illuminates I
single-antenna backscatter devices (SBDs) sitting on a ring around it.  In the
first phase slice of each frame the SBDs modulate the incident carrier back to
the BS; in the second slice the BS relays the decoded symbols to I reflect-side
and I transmit-side user equipments (SUEs), assisted by an amplifying
simultaneously transmitting/reflecting relay surface.  The surface plane splits
the scene into a reflection half (containing the BS and the reflect SUEs) and a
transmission half (containing the transmit SUEs).

Conventions
-----------
* 2-D geometry, positions in metres, BS at the origin.
* BS antennas and surface elements are half-wavelength uniform linear arrays
  along the y-axis, so the steering phase of element k toward a point offset
  (dx, dy) is pi * k * dy / hypot(dx, dy).
* Channel blocks and their per-entry second moments:
    h1  (N, I)  BS -> SBD_i columns,        Rayleigh, PL(d_bs_sbd) * G_bs
    g1  (N, I)  SBD_i -> BS columns,        Rayleigh, PL(d_bs_sbd) * G_bs
    h2  (M, N)  BS -> surface (conjugated), Rician,   PL(d_bs_asris) * G_bs * G_ris
    h3  (N, I)  BS -> reflect-SUE_i cols,   Rayleigh, PL(d_bs_sue) * G_bs
    g2r (I, M)  surface -> reflect-SUE_i,   Rician,   PL(d_asris_sue) * G_ris
    g2t (I, M)  surface -> transmit-SUE_i,  Rician,   PL(d_asris_sue) * G_ris
  h2 stores the surface-side view of the BS->surface link, i.e. the matrix
  that left-multiplies a BS beamforming vector after the element-wise surface
  response has been applied.
* All randomness in the package comes from counter-based Philox generators
  keyed by 64-bit seeds, so placements and realizations are reproducible
  across platforms.  The seeding rules live here: ``philox`` builds a
  generator, ``derive_keys`` fans one seed out into independent keys and
  ``next_seed`` draws the next seed of a seed stream.
  One realization takes all its normals from one ``standard_normal`` call, in
  block order h1, g1, h2, h3, g2r, g2t and, within a block, real parts before
  imaginary parts.
* Placements are immutable (frozen fields, read-only arrays).  Node positions
  are drawn once per episode and the fading once per frame, so every caller
  draws all the frames of a placement in one ``draw_realization`` call.
* ``check_in`` is the package's one check of outside input.  It keeps NaN and
  infinities out of every float of ``SystemConfig``, so out of the channels, and
  lets only integers into an interval closed at infinity: every count and seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_watts(dbm: float) -> float:
    """Convert a dBm power level to watts (0 dBm = 1 mW)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclasses.dataclass
class SystemConfig:
    """Static scene parameters shared by every module.

    Counts are numbers of BS antennas / surface elements / SBD-SUE pairs; the
    backscatter spreading stretches one device symbol over
    ``symbols_per_bd_symbol`` carrier symbols.  Antenna gains are linear power
    gains, noise figures are variances in watts, and ``harvest_threshold_joules``
    is the energy each SBD must scavenge per (unit-length) frame.
    """

    n_bs_antennas: int = 8
    n_ris_elements: int = 16
    n_pairs: int = 3
    symbols_per_bd_symbol: int = 100
    bandwidth_hz: float = 1.0
    noise_bs_watts: float = dbm_to_watts(-120.0)
    noise_asris_watts: float = dbm_to_watts(-120.0)
    noise_sue_watts: float = dbm_to_watts(-120.0)
    p_bs_max_watts: float = 20.0
    p_asris_watts: float = 10.0
    energy_conversion_efficiency: float = 0.8
    harvest_threshold_joules: float = 1e-6
    carrier_hz: float = 28e9
    path_loss_exponent: float = 3.0
    rician_k: float = 10.0
    bs_antenna_gain: float = 16.0
    ris_element_gain: float = 8.0
    d_bs_sbd_m: float = 200.0
    d_bs_sue_max_m: float = 100.0
    d_bs_asris_max_m: float = 300.0

    def __post_init__(self) -> None:
        check_in("[1, inf]", n_bs_antennas=self.n_bs_antennas, n_ris_elements=self.n_ris_elements,
                 n_pairs=self.n_pairs, symbols_per_bd_symbol=self.symbols_per_bd_symbol)
        check_in("(0, inf)", **{name: getattr(self, name) for name in (
            "bandwidth_hz", "noise_bs_watts", "noise_asris_watts", "noise_sue_watts",
            "p_bs_max_watts", "p_asris_watts", "carrier_hz", "d_bs_sbd_m", "d_bs_sue_max_m",
            "d_bs_asris_max_m", "bs_antenna_gain", "ris_element_gain")})
        check_in("[0, 1]", energy_conversion_efficiency=self.energy_conversion_efficiency)
        check_in("[0, inf)", harvest_threshold_joules=self.harvest_threshold_joules,
                 path_loss_exponent=self.path_loss_exponent, rician_k=self.rician_k)


def path_loss(distance_m: float, carrier_hz: float = 28e9, exponent: float = 3.0) -> float:
    """Free-space reference loss at 1 m times d^-exponent.

    PL(d) = (lambda / (4 pi))^2 * d^-exponent with lambda = c / f.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    wavelength = SPEED_OF_LIGHT / carrier_hz
    reference = (wavelength / (4.0 * math.pi)) ** 2
    return reference * distance_m ** (-exponent)


@dataclasses.dataclass(frozen=True)
class Placement:
    """Node positions for one scene draw.  All arrays are (count, 2) in metres.

    A placement is immutable: its fields cannot be reassigned and
    ``make_placement`` returns read-only arrays.
    """

    bs: np.ndarray
    asris: np.ndarray
    sbd: np.ndarray
    sue_reflect: np.ndarray
    sue_transmit: np.ndarray
    seed: int

    def d_bs_asris(self) -> float:
        return float(np.linalg.norm(self.asris - self.bs))

    def d_bs_sue_reflect(self) -> np.ndarray:
        return np.linalg.norm(self.sue_reflect - self.bs, axis=1)

    def d_asris_sue_reflect(self) -> np.ndarray:
        return np.linalg.norm(self.sue_reflect - self.asris, axis=1)

    def d_asris_sue_transmit(self) -> np.ndarray:
        return np.linalg.norm(self.sue_transmit - self.asris, axis=1)


def philox(seed: int) -> np.random.Generator:
    """The package's one generator kind: counter-based Philox keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


def derive_keys(seed: int, count: int) -> list[int]:
    """Independent 64-bit generator keys fanned out from a master seed (a count from 0)."""
    check_in("[0, inf]", seed=seed)
    return [int(k) for k in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def next_seed(rng: np.random.Generator) -> int:
    """The next seed a seed stream hands out, uniform on [0, 2**63)."""
    return int(rng.integers(0, 2**63))


def check_in(allowed, **values) -> None:
    """Raise ValueError unless every value lies in ``allowed``: a tuple of the
    allowed values, each matched with its type (1 is not True), or an interval
    written like "[0, 1]" or "(0, inf)"; NaN, bools and values that are not
    numbers lie in no interval.  An interval closed at infinity, like
    "[1, inf]", holds counts: Python or NumPy integers only, never a float, NaN
    or inf."""
    if isinstance(allowed, tuple):
        for name, value in values.items():
            if not any(type(value) is type(a) and value == a for a in allowed):
                *head, last = map(repr, allowed)
                raise ValueError(f"{name} must be {', '.join(head)} or {last}, got {value!r}")
        return
    low, high = (float(end) for end in allowed[1:-1].split(","))
    for name, value in values.items():
        try:
            above = value > low if allowed[0] == "(" else value >= low
            below = value < high if allowed[-1] == ")" else value <= high
        except TypeError:
            above = below = False
        whole = isinstance(value, (int, np.integer))
        if (not (above and below and (whole or not allowed.endswith("inf]")))
                or isinstance(value, (bool, np.bool_))):
            raise ValueError(f"{name} must be in {allowed}, got {value!r}")


def make_placement(cfg: SystemConfig, seed: int) -> Placement:
    """Draw node positions.

    The BS sits at the origin and the surface on the +x axis; its plane is the
    vertical line through it, so "behind the surface" means x greater than the
    surface abscissa.  SBDs are placed on the exact 200 m ring at uniform
    angles.  SUEs are uniform over the BS disc of radius d_bs_sue_max_m,
    rejection-split by the surface plane: reflect users on the BS side,
    transmit users beyond it.  The surface is pulled inside the SUE disc
    (0.6 * d_bs_sue_max_m, capped by d_bs_asris_max_m) so that the transmit
    half of the disc is nonempty.
    """
    rng = philox(seed)
    i = cfg.n_pairs
    bs = np.zeros(2)
    d_asris = min(cfg.d_bs_asris_max_m, 0.6 * cfg.d_bs_sue_max_m)
    asris = np.array([d_asris, 0.0])

    angles = rng.uniform(0.0, 2.0 * math.pi, size=i)
    sbd = cfg.d_bs_sbd_m * np.column_stack([np.cos(angles), np.sin(angles)])

    def disc_point(side: int) -> np.ndarray:
        # side -1: reflect half (x < d_asris), +1: transmit half (x > d_asris)
        while True:
            p = rng.uniform(-cfg.d_bs_sue_max_m, cfg.d_bs_sue_max_m, size=2)
            if p[0] ** 2 + p[1] ** 2 > cfg.d_bs_sue_max_m ** 2:
                continue
            if side * (p[0] - d_asris) > 0.0:
                return p

    sue_reflect = np.stack([disc_point(-1) for _ in range(i)])
    sue_transmit = np.stack([disc_point(+1) for _ in range(i)])
    positions = (bs, asris, sbd, sue_reflect, sue_transmit)
    for array in positions:
        array.setflags(write=False)
    return Placement(*positions, seed)


@dataclasses.dataclass
class ChannelRealization:
    """One fading draw.  See the module docstring for shapes and moments.

    A realization of L frames puts a leading lane axis L on every block and
    holds their L seeds as a tuple.
    """

    h1: np.ndarray
    g1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    g2r: np.ndarray
    g2t: np.ndarray
    seed: int | tuple

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.h1, self.g1, self.h2, self.h3, self.g2r, self.g2t)

    def lane(self, index) -> ChannelRealization:
        """Lane ``index`` of a realization with a lane axis: one frame for an
        int, the lanes it picks for a slice."""
        return ChannelRealization(*(block[index] for block in self.blocks()), self.seed[index])


def ula_steering(n_elements: int, sin_angle: float) -> np.ndarray:
    """Half-wavelength ULA response for a ray whose direction has the given
    sine along the array axis."""
    return np.exp(1j * math.pi * np.arange(n_elements) * sin_angle)


def _sin_toward(origin: np.ndarray, target: np.ndarray) -> float:
    d = target - origin
    dist = math.hypot(d[0], d[1])
    if dist == 0.0:
        raise ValueError("co-located nodes have no steering direction")
    return d[1] / dist


def _fading_scale(variance) -> np.ndarray:
    return np.sqrt(np.asarray(variance, dtype=float) / 2.0)


def draw_realization(cfg: SystemConfig, placement: Placement, seed) -> ChannelRealization:
    """Draw one channel realization from the placement, or one per seed of a
    sequence of seeds, stacked along a leading lane axis.

    BS-side links (h1, g1, h3) are Rayleigh, sqrt(var / 2) * (x + jy); surface
    links (h2, g2r, g2t) are Rician, sqrt(var) * (los_gain * los + nlos), with
    a deterministic line-of-sight component built from the steering vectors of
    the two arrays.  All normals of a realization come from one Philox stream
    keyed by its seed, block by block in the fixed order h1, g1, h2, h3, g2r,
    g2t, each block's real parts before its imaginary parts, so a given seed
    always yields the same channels, alone or as a lane.  What depends only on
    the placement (path losses, line-of-sight vectors, square roots of the
    variances) is computed once per call and shared by its lanes, so callers
    draw all the frames of a placement in one call.
    """
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    if len(placement.sue_reflect) != i or len(placement.sue_transmit) != i:
        raise ValueError(f"placement has {len(placement.sue_reflect)} reflect and "
                         f"{len(placement.sue_transmit)} transmit users, config n_pairs is {i}")
    g_bs, g_ris = cfg.bs_antenna_gain, cfg.ris_element_gain
    pl = lambda d: path_loss(d, cfg.carrier_hz, cfg.path_loss_exponent)
    los_gain = math.sqrt(cfg.rician_k / (cfg.rician_k + 1.0))
    nlos_scale = _fading_scale(1.0 / (cfg.rician_k + 1.0))

    var_sbd = pl(cfg.d_bs_sbd_m) * g_bs
    var_h2 = pl(placement.d_bs_asris()) * g_bs * g_ris
    los_h2 = np.outer(ula_steering(m, _sin_toward(placement.asris, placement.bs)),
                      ula_steering(n, _sin_toward(placement.bs, placement.asris)).conj())
    var_h3 = np.array([pl(d) * g_bs for d in placement.d_bs_sue_reflect()])
    var_g2r = np.array([pl(d) * g_ris for d in placement.d_asris_sue_reflect()])
    var_g2t = np.array([pl(d) * g_ris for d in placement.d_asris_sue_transmit()])
    los_sue = lambda users: np.stack(
        [ula_steering(m, _sin_toward(placement.asris, user)).conj() for user in users])

    # per block in draw order: shape, scale of the scattered part, and for a
    # Rician block sqrt(variance) and the line-of-sight unit vector
    blocks = [
        ((n, i), _fading_scale(var_sbd), None),
        ((n, i), _fading_scale(var_sbd), None),
        ((m, n), nlos_scale, (np.sqrt(var_h2), los_h2)),
        ((n, i), _fading_scale(var_h3[None, :]), None),
        ((i, m), nlos_scale, (np.sqrt(var_g2r[:, None]), los_sue(placement.sue_reflect))),
        ((i, m), nlos_scale, (np.sqrt(var_g2t[:, None]), los_sue(placement.sue_transmit))),
    ]
    n_normals = 2 * sum(math.prod(shape) for shape, _, _ in blocks)
    if isinstance(seed, (int, np.integer)):
        z = philox(seed).standard_normal(n_normals)
    else:
        seed = tuple(seed)
        z = np.empty((len(seed), n_normals))
        for normals, lane_seed in zip(z, seed):
            philox(lane_seed).standard_normal(out=normals)
    lanes, start, drawn = z.shape[:-1], 0, []
    for shape, scale, rician in blocks:
        size = math.prod(shape)
        x, y = (z[..., a : a + size].reshape(lanes + shape) for a in (start, start + size))
        start += 2 * size
        h = scale * (x + 1j * y)
        if rician is not None:
            amp, los = rician
            h = amp * (los_gain * los + h)
        drawn.append(h)
    return ChannelRealization(*drawn, seed)
