"""Achievable rates of both frame phases.

Phase 1 (fraction tau of the frame): each SBD backscatters one device symbol
spread over K carrier symbols; the BS receives it through g1 with maximum-ratio
combining while the other, stronger devices act as interference.  Phase 2
(fraction 1 - tau): the BS beamforms the decoded symbols to the SUEs, directly
and through the relay surface, with successive interference cancellation at
each receiver.  Per-user decoding order within a phase follows the effective
received strengths, strongest first; users earlier in the order interfere with
later ones.

All rates are in bits/s/Hz-equivalents for the configured bandwidth; setting
``bandwidth_hz`` to 1 gives plain spectral efficiencies.

Batches: every function here also takes B decisions at once, as one
:class:`DecisionVariables` whose fields carry a leading axis B (rate_target
(B,), eta/tau/power (B, I), w1/w2 (B, N, I), surface coefficients (B, M)).
All B rows are scored in one pass, and the results carry the same leading
axis.  A single decision is the B-less case of the same code.

Lanes: channel blocks may carry a leading lane axis L too (h1 (L, N, I), ...)
that lines up with the batch axis, so decision l is scored on channel l, bit
for bit as on lane l alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import ChannelRealization, SystemConfig
from .ris import RisCoefficients, response_vector


@dataclasses.dataclass
class DecisionVariables:
    """One complete resource-allocation decision, or a batch of them.

    rate_target  common per-user throughput target (bits/s/Hz)
    eta          per-SBD power-split toward backscattering, in [0, 1]
    tau          per-pair phase-1 time share, in [0, 1]
    power        per-pair BS transmit power (W)
    w1 / w2      unit-norm BS beamforming columns for phase 1 / phase 2, (N, I)
    ris          surface coefficients for phase 2

    A batch puts a leading axis B on every field (see the module docstring).
    """

    rate_target: float
    eta: np.ndarray
    tau: np.ndarray
    power: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ris: RisCoefficients

    def __post_init__(self) -> None:
        self.eta = np.asarray(self.eta, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        self.w1 = np.asarray(self.w1, dtype=complex)
        self.w2 = np.asarray(self.w2, dtype=complex)

    def row(self, b: int) -> "DecisionVariables":
        """Decision b of a batch, with arrays of its own."""
        c = self.ris
        return DecisionVariables(
            float(self.rate_target[b]), self.eta[b].copy(), self.tau[b].copy(),
            self.power[b].copy(), self.w1[b].copy(), self.w2[b].copy(),
            RisCoefficients(c.beta_t[b].copy(), c.beta_r[b].copy(), c.theta_t[b].copy(),
                            c.theta_r[b].copy(), mode=c.mode),
        )


@dataclasses.dataclass
class RateReport:
    """Rates, SINRs and decoding orders for every user of one decision, each
    (I,); for a batch, each (B, I)."""

    phase1_rate: np.ndarray
    phase2_reflect_rate: np.ndarray
    phase2_transmit_rate: np.ndarray
    phase1_sinr: np.ndarray
    phase2_reflect_sinr: np.ndarray
    phase2_transmit_sinr: np.ndarray
    phase1_order: np.ndarray
    phase2_reflect_order: np.ndarray
    phase2_transmit_order: np.ndarray

    def row(self, b: int) -> "RateReport":
        """The report of decision b of a batch."""
        return RateReport(
            self.phase1_rate[b], self.phase2_reflect_rate[b], self.phase2_transmit_rate[b],
            self.phase1_sinr[b], self.phase2_reflect_sinr[b], self.phase2_transmit_sinr[b],
            self.phase1_order[b], self.phase2_reflect_order[b], self.phase2_transmit_order[b],
        )

    @property
    def min_rates(self) -> np.ndarray:
        """Worst rate over all users of both phases, per decision.

        The three phase minima are combined like builtin ``min()`` over them
        in phase order: a NaN phase-1 minimum wins, a later NaN never does.
        """
        worst = self.phase1_rate.min(axis=-1)
        for rates in (self.phase2_reflect_rate, self.phase2_transmit_rate):
            low = rates.min(axis=-1)
            worst = np.where(low < worst, low, worst)
        return worst

    @property
    def sum_rates(self) -> np.ndarray:
        """Sum of all users' rates of both phases, per decision."""
        return (
            self.phase1_rate.sum(axis=-1)
            + self.phase2_reflect_rate.sum(axis=-1)
            + self.phase2_transmit_rate.sum(axis=-1)
        )


def sic_order(gains: np.ndarray) -> np.ndarray:
    """Decoding order: indices sorted by effective gain, strongest first
    (along the last axis).

    Ties keep the lower user index first, so the order is a deterministic
    function of the gain vector.
    """
    gains = np.asarray(gains, dtype=float)
    return (-gains).argsort(axis=-1, kind="stable")


def take_in_order(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """values[..., order] row by row: np.take_along_axis on the last axis of
    (I,) or (B, I) arrays, without its per-call overhead."""
    if order.ndim == 1:
        return values[order]
    return values[np.arange(len(order))[:, None], order]


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis vectors, each taken by BLAS as a
    1-D ``x @ y`` takes it, so results match that to the last bit."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def beam_gains(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|h_i^H w_i|^2 per user, for (..., N, I) channel columns and beams."""
    return np.abs(np.einsum("...ni,...ni->...i", h.conj(), w)) ** 2


def phase1_all(
    ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rates, SINRs and decoding order of the backscatter phase."""
    k = cfg.symbols_per_bd_symbol
    # P_i eta_i ||g1_i||^2 |h1_i^H w1_i|^2: received backscatter power factor
    g_norm2 = (np.abs(ch.g1) ** 2).sum(axis=-2)
    strengths = dv.power * dv.eta * g_norm2 * beam_gains(ch.h1, dv.w1)
    order = sic_order(strengths)
    # each user hears the users decoded before it: an exclusive running sum
    # along the decoding order, mapped back to user index order
    ranked = take_in_order(strengths, order)
    prefix = np.zeros_like(ranked)
    prefix[..., 1:] = ranked[..., :-1].cumsum(axis=-1)
    interference = take_in_order(prefix, order.argsort(axis=-1))
    sinr = k * strengths / (interference + cfg.bandwidth_hz * cfg.noise_bs_watts)
    # nonphysical decisions (negative power) give sinr < -1; the rate is then
    # NaN by design rather than a warning, the constraint report carries the
    # verdict through the finite sinr slack
    with np.errstate(invalid="ignore"):
        rate = (cfg.bandwidth_hz * dv.tau / k) * np.log2(1.0 + sinr)
    return rate, sinr, order


def _phase2_all(
    ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig, side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    response = response_vector(dv.ris, side)
    g2 = ch.g2r if side == "reflect" else ch.g2t
    rows = (g2 * response[..., None, :]) @ ch.h2  # (..., I, N): effective downlink rows
    if side == "reflect":
        rows = rows + ch.h3.conj().swapaxes(-1, -2)
    c = rows @ dv.w2  # c[i, j]: user i's channel applied to beam j
    strengths = dv.power * np.abs(np.diagonal(c, axis1=-2, axis2=-1)) ** 2
    order = sic_order(strengths)
    cross = dv.power[..., None, :] * np.abs(c) ** 2  # cross[i, j] = P_j |c_ij|^2
    # earlier[i, j]: user j is decoded before user i, i.e. the strictly lower
    # triangle of the cross gains once both axes are put in decoding order
    rank = order.argsort(axis=-1)
    earlier = rank[..., None, :] < rank[..., :, None]
    interference = row_dot(cross, earlier.astype(float))
    # thermal noise injected by the amplifying surface, as seen by any SUE
    summed = g2.sum(axis=-2) * response
    surface_noise = (np.abs(summed) ** 2).sum(axis=-1) * cfg.noise_asris_watts
    noise = cfg.bandwidth_hz * (surface_noise + cfg.noise_sue_watts)
    sinr = strengths / (interference + noise[..., None])
    with np.errstate(invalid="ignore"):
        rate = cfg.bandwidth_hz * (1.0 - dv.tau) * np.log2(1.0 + sinr)
    return rate, sinr, order


def rate_report(
    ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig
) -> RateReport:
    """Assemble rates for all users of both phases under consistent decoding
    orders (one per user family)."""
    r1, s1, o1 = phase1_all(ch, dv, cfg)
    r2r, s2r, o2r = _phase2_all(ch, dv, cfg, "reflect")
    r2t, s2t, o2t = _phase2_all(ch, dv, cfg, "transmit")
    return RateReport(r1, r2r, r2t, s1, s2r, s2t, o1, o2r, o2t)
