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
* Placements are immutable (frozen fields, read-only arrays).  What a draw
  needs from the placement alone, namely path losses, line-of-sight vectors
  and the square roots of the variances, is computed at its first draw and
  cached on it, keyed by the config values it reads; every later draw only
  scales fresh normals.
"""

from __future__ import annotations

import dataclasses
import math
import operator

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
        for name in ("n_bs_antennas", "n_ris_elements", "n_pairs", "symbols_per_bd_symbol"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in (
            "bandwidth_hz",
            "noise_bs_watts",
            "noise_asris_watts",
            "noise_sue_watts",
            "p_bs_max_watts",
            "p_asris_watts",
            "carrier_hz",
            "d_bs_sbd_m",
            "d_bs_sue_max_m",
            "d_bs_asris_max_m",
        ):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not 0.0 <= self.energy_conversion_efficiency <= 1.0:
            raise ValueError(
                f"energy_conversion_efficiency must lie in [0, 1], "
                f"got {self.energy_conversion_efficiency!r}"
            )
        if self.harvest_threshold_joules < 0.0:
            raise ValueError("harvest_threshold_joules must be nonnegative")
        if self.path_loss_exponent < 0.0:
            raise ValueError("path_loss_exponent must be nonnegative")
        if self.rician_k < 0.0:
            raise ValueError("rician_k must be nonnegative")
        for name in ("bs_antenna_gain", "ris_element_gain"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


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
    ``make_placement`` returns read-only arrays, so the channel terms that
    ``draw_realization`` caches on it never go stale.
    """

    bs: np.ndarray
    asris: np.ndarray
    sbd: np.ndarray
    sue_reflect: np.ndarray
    sue_transmit: np.ndarray
    seed: int
    _terms: _ChannelTerms | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def d_bs_sbd(self) -> np.ndarray:
        return np.linalg.norm(self.sbd - self.bs, axis=1)

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
    """Independent 64-bit generator keys fanned out from one master seed."""
    return [int(k) for k in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def next_seed(rng: np.random.Generator) -> int:
    """The next seed a seed stream hands out, uniform on [0, 2**63)."""
    return int(rng.integers(0, 2**63))


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
    """One fading draw.  See the module docstring for shapes and moments."""

    h1: np.ndarray
    g1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    g2r: np.ndarray
    g2t: np.ndarray
    seed: int

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.h1, self.g1, self.h2, self.h3, self.g2r, self.g2t)


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


# The SystemConfig fields the per-placement channel terms depend on: a draw
# under a config whose values differ here rebuilds the placement's terms.
_TERM_FIELDS = operator.attrgetter(
    "n_bs_antennas", "n_ris_elements", "n_pairs", "bs_antenna_gain", "ris_element_gain",
    "carrier_hz", "path_loss_exponent", "rician_k", "d_bs_sbd_m",
)


# Where each block of a draw (numbered in draw order h1, g1, h2, h3, g2r, g2t)
# sits in the flat array of all entries: the Rayleigh blocks first, then the
# Rician ones, which need two more operations per draw.
_FLAT_ORDER = (0, 1, 3, 2, 4, 5)


@dataclasses.dataclass(frozen=True)
class _ChannelTerms:
    """Everything a fading draw needs besides its normals, for one placement
    and one set of ``_TERM_FIELDS`` values.

    The entries of all six blocks lie in one flat array, the Rayleigh blocks
    (h1, g1, h3) first and the Rician ones (h2, g2r, g2t) after them.  ``re``
    and ``im`` index each entry's real and imaginary normal in the stream of
    one realization, which holds the blocks in draw order.
    """

    key: tuple
    n_normals: int
    re: np.ndarray
    im: np.ndarray
    scale: np.ndarray  # sqrt(variance / 2) of the scattered part, per entry
    n_rayleigh: int
    los: np.ndarray  # los_gain * line-of-sight unit vector, per Rician entry
    amp: np.ndarray  # sqrt(link variance), per Rician entry
    slices: tuple  # (start, stop, shape) of h1, g1, h2, h3, g2r, g2t in the flat array


def _fading_scale(variance) -> np.ndarray:
    return np.sqrt(np.asarray(variance, dtype=float) / 2.0)


def _channel_terms(cfg: SystemConfig, placement: Placement) -> _ChannelTerms:
    """The placement's cached terms, built at its first draw under these
    config values (path losses, steering vectors, square roots)."""
    key = _TERM_FIELDS(cfg)
    terms = placement._terms
    if terms is not None and terms.key == key:
        return terms

    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    if len(placement.sue_reflect) != i or len(placement.sue_transmit) != i:
        raise ValueError(
            f"placement has {len(placement.sue_reflect)} reflect and "
            f"{len(placement.sue_transmit)} transmit users, config n_pairs is {i}"
        )
    g_bs, g_ris = cfg.bs_antenna_gain, cfg.ris_element_gain
    pl = lambda d: path_loss(d, cfg.carrier_hz, cfg.path_loss_exponent)
    k_factor = cfg.rician_k
    los_gain = math.sqrt(k_factor / (k_factor + 1.0))
    nlos_scale = _fading_scale(1.0 / (k_factor + 1.0))

    var_sbd = pl(cfg.d_bs_sbd_m) * g_bs
    var_h2 = pl(placement.d_bs_asris()) * g_bs * g_ris
    los_h2 = np.outer(
        ula_steering(m, _sin_toward(placement.asris, placement.bs)),
        ula_steering(n, _sin_toward(placement.bs, placement.asris)).conj(),
    )
    var_h3 = np.array([pl(d) * g_bs for d in placement.d_bs_sue_reflect()])
    var_g2r = np.array([pl(d) * g_ris for d in placement.d_asris_sue_reflect()])
    los_g2r = np.stack(
        [
            ula_steering(m, _sin_toward(placement.asris, placement.sue_reflect[k])).conj()
            for k in range(i)
        ]
    )
    var_g2t = np.array([pl(d) * g_ris for d in placement.d_asris_sue_transmit()])
    los_g2t = np.stack(
        [
            ula_steering(m, _sin_toward(placement.asris, placement.sue_transmit[k])).conj()
            for k in range(i)
        ]
    )

    # per block in draw order: shape, scale of the scattered part, and for a
    # Rician block sqrt(variance) and the line-of-sight unit vector
    blocks = [
        ((n, i), _fading_scale(var_sbd), None),
        ((n, i), _fading_scale(var_sbd), None),
        ((m, n), nlos_scale, (np.sqrt(np.asarray(var_h2, dtype=float)), los_h2)),
        ((n, i), _fading_scale(var_h3[None, :]), None),
        ((i, m), nlos_scale, (np.sqrt(var_g2r[:, None]), los_g2r)),
        ((i, m), nlos_scale, (np.sqrt(var_g2t[:, None]), los_g2t)),
    ]
    sizes = [math.prod(shape) for shape, _, _ in blocks]
    n_entries, n_rayleigh = sum(sizes), 3 * n * i
    re = np.empty(n_entries, dtype=np.intp)
    scale = np.empty(n_entries)
    amp = np.empty(n_entries - n_rayleigh)
    los = np.empty(n_entries - n_rayleigh, dtype=complex)
    slices = [None] * len(blocks)
    stream_start = np.cumsum([0] + [2 * size for size in sizes[:-1]])
    start = 0
    for b in _FLAT_ORDER:
        shape, block_scale, los_part = blocks[b]
        stop = start + sizes[b]
        re[start:stop] = np.arange(stream_start[b], stream_start[b] + sizes[b])
        scale[start:stop].reshape(shape)[...] = block_scale
        if los_part is not None:
            block_amp, los_unit = los_part
            amp[start - n_rayleigh : stop - n_rayleigh].reshape(shape)[...] = block_amp
            los[start - n_rayleigh : stop - n_rayleigh] = (los_gain * los_unit).ravel()
        slices[b] = (start, stop, shape)
        start = stop
    flat_sizes = [sizes[b] for b in _FLAT_ORDER]
    terms = _ChannelTerms(
        key=key,
        n_normals=2 * n_entries,
        re=re,
        im=re + np.repeat(flat_sizes, flat_sizes),
        scale=scale,
        n_rayleigh=n_rayleigh,
        los=los,
        amp=amp,
        slices=tuple(slices),
    )
    object.__setattr__(placement, "_terms", terms)
    return terms


def draw_realization(cfg: SystemConfig, placement: Placement, seed: int) -> ChannelRealization:
    """Draw one channel realization from the placement.

    BS-side links (h1, g1, h3) are Rayleigh, sqrt(var / 2) * (x + jy); surface
    links (h2, g2r, g2t) are Rician, sqrt(var) * (los_gain * los + nlos), with
    a deterministic line-of-sight component built from the steering vectors of
    the two arrays.  All normals of a realization come from one Philox stream
    keyed by ``seed``, block by block in the fixed order h1, g1, h2, h3, g2r,
    g2t, each block's real parts before its imaginary parts, so a given seed
    always yields the same channels.  What depends only on the placement (path
    losses, line-of-sight vectors, square roots of the variances) is computed
    at the placement's first draw and cached on it; see ``_channel_terms``.
    """
    terms = _channel_terms(cfg, placement)
    z = philox(seed).standard_normal(terms.n_normals)
    w = z[terms.re] + 1j * z[terms.im]
    np.multiply(terms.scale, w, out=w)
    rician = w[terms.n_rayleigh :]
    np.add(terms.los, rician, out=rician)
    np.multiply(terms.amp, rician, out=rician)
    h1, g1, h2, h3, g2r, g2t = (w[a:b].reshape(shape) for a, b, shape in terms.slices)
    return ChannelRealization(h1, g1, h2, h3, g2r, g2t, seed)
