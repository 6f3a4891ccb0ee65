"""Feasibility bookkeeping for the max-min throughput problem.

The network maximizes the worst per-user rate subject to eleven constraint
families, indexed C1..C11 in every report and CSV:

  C1  passive_split        per-element beta_t + beta_r = 1 (passive surface)
  C2  active_gain          per-element beta <= p_asris / 2 (active surface)
  C3  phase_range          all surface phases inside [0, 2 pi]
  C4  power_cap            0 <= P_i <= p_bs_max
  C5  eta_range            0 <= eta_i <= 1
  C6  tau_range            0 <= tau_i <= 1
  C7  harvest              scavenged energy of each SBD >= threshold
  C8  sic_order_phase1     backscatter rates nonincreasing along the decoding order
  C9  sic_order_phase2     downlink rates nonincreasing along both decoding orders
  C10 rate_target_phase1   every backscatter SINR supports the target rate
  C11 rate_target_phase2   every downlink SINR supports the target rate

Each entry carries a signed slack; a constraint holds exactly when its slack
is >= 0.  C1/C2 are vacuously satisfied (slack 0) in the mode where they do
not apply.  C10/C11 compare SINRs against the inverted rate expressions, so a
positive target with a zero-length phase makes them unsatisfiable (huge
negative slack) rather than dividing by zero.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import ChannelRealization, SystemConfig
from .rates import DecisionVariables, RateReport, beam_gains, take_in_order
from .ris import PASSIVE

CONSTRAINT_NAMES = (
    "passive_split",
    "active_gain",
    "phase_range",
    "power_cap",
    "eta_range",
    "tau_range",
    "harvest",
    "sic_order_phase1",
    "sic_order_phase2",
    "rate_target_phase1",
    "rate_target_phase2",
)

N_CONSTRAINTS = len(CONSTRAINT_NAMES)
_TWO_PI = 2.0 * np.pi
# exp2 exponents above ~1023 overflow float64; clamping keeps slacks finite
# while staying astronomically above any physical SINR.
_MAX_EXP2 = 1023.0

LITERAL = "literal"
PENALTY = "penalty"


@dataclasses.dataclass
class ConstraintReport:
    """Flags and signed slacks for the eleven constraint families: (11,) each,
    or (B, 11) for a batch of decisions."""

    flags: np.ndarray
    slacks: np.ndarray

    def __post_init__(self) -> None:
        self.flags = np.asarray(self.flags, dtype=bool)
        self.slacks = np.asarray(self.slacks, dtype=float)
        if self.flags.shape != self.slacks.shape or self.flags.shape[-1:] != (N_CONSTRAINTS,):
            raise ValueError(f"reports carry exactly {N_CONSTRAINTS} entries per decision")

    @property
    def satisfied_counts(self) -> np.ndarray:
        """Number of satisfied families, per decision."""
        return self.flags.sum(axis=-1)

    @property
    def satisfied_count(self) -> int:
        return int(self.satisfied_counts)

    def row(self, b: int) -> "ConstraintReport":
        """The report of decision b of a batch."""
        return ConstraintReport(self.flags[b], self.slacks[b])


def harvested_energy(
    ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig
) -> np.ndarray:
    """Energy each SBD scavenges over one unit frame.

    The device keeps the (1 - eta) share of the incident power during the
    (1 - tau) slice it is not backscattering in, scaled by the conversion
    efficiency.
    """
    return (
        cfg.energy_conversion_efficiency
        * dv.power
        * (1.0 - dv.eta)
        * (1.0 - dv.tau)
        * beam_gains(ch.h1, dv.w1)
    )


def _ordering_slack(rates: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Minimum consecutive drop along the decoding order; >= 0 when rates are
    nonincreasing, 0 for a single user."""
    if order.shape[-1] < 2:
        return np.zeros(order.shape[:-1])
    ordered = take_in_order(rates, order)
    return (ordered[..., :-1] - ordered[..., 1:]).min(axis=-1)


def _required_sinr(rate_target, time_share: np.ndarray, spread: float,
                   bandwidth: float) -> np.ndarray:
    """Invert rate = (bandwidth * share / spread) * log2(1 + sinr) for sinr;
    0 wherever the target is not positive."""
    target = np.asarray(rate_target, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.where(time_share > 0.0, spread * target / (bandwidth * time_share), np.inf)
    need = np.exp2(np.minimum(exponent, _MAX_EXP2)) - 1.0
    return np.where(target <= 0.0, 0.0, need)


def constraint_slacks(
    ch: ChannelRealization,
    dv: DecisionVariables,
    cfg: SystemConfig,
    rates: RateReport,
) -> np.ndarray:
    """Signed slacks of all eleven constraint families: (11,) for one
    decision, (B, 11) for a batch."""
    slacks = np.empty(dv.eta.shape[:-1] + (N_CONSTRAINTS,))
    coeff = dv.ris

    if coeff.mode == PASSIVE:
        slacks[..., 0] = -np.abs(coeff.beta_t + coeff.beta_r - 1.0).max(axis=-1)
        slacks[..., 1] = 0.0
    else:
        slacks[..., 0] = 0.0
        # larger of the two sides' maxima as builtin max() picks it: a NaN on
        # the beta_r side loses to a number on the beta_t side
        top_t, top_r = coeff.beta_t.max(axis=-1), coeff.beta_r.max(axis=-1)
        slacks[..., 1] = cfg.p_asris_watts / 2.0 - np.where(top_r > top_t, top_r, top_t)

    thetas = np.concatenate([coeff.theta_t, coeff.theta_r], axis=-1)
    slacks[..., 2] = np.minimum(thetas, _TWO_PI - thetas).min(axis=-1)
    slacks[..., 3] = np.minimum(cfg.p_bs_max_watts - dv.power, dv.power).min(axis=-1)
    slacks[..., 4] = np.minimum(dv.eta, 1.0 - dv.eta).min(axis=-1)
    slacks[..., 5] = np.minimum(dv.tau, 1.0 - dv.tau).min(axis=-1)
    slacks[..., 6] = (harvested_energy(ch, dv, cfg) - cfg.harvest_threshold_joules).min(axis=-1)
    slacks[..., 7] = _ordering_slack(rates.phase1_rate, rates.phase1_order)
    # np.minimum propagates NaN from either side
    slacks[..., 8] = np.minimum(
        _ordering_slack(rates.phase2_reflect_rate, rates.phase2_reflect_order),
        _ordering_slack(rates.phase2_transmit_rate, rates.phase2_transmit_order),
    )

    need1 = _required_sinr(
        dv.rate_target, dv.tau, float(cfg.symbols_per_bd_symbol), cfg.bandwidth_hz
    )
    slacks[..., 9] = (rates.phase1_sinr - need1).min(axis=-1)
    need2 = _required_sinr(dv.rate_target, 1.0 - dv.tau, 1.0, cfg.bandwidth_hz)
    slacks[..., 10] = np.minimum(
        (rates.phase2_reflect_sinr - need2).min(axis=-1),
        (rates.phase2_transmit_sinr - need2).min(axis=-1),
    )
    return slacks


def evaluate_constraints(
    ch: ChannelRealization,
    dv: DecisionVariables,
    cfg: SystemConfig,
    rates: RateReport,
) -> ConstraintReport:
    """Score one decision, or a batch, against all eleven constraint families."""
    slacks = constraint_slacks(ch, dv, cfg, rates)
    return ConstraintReport(slacks >= 0.0, slacks)


def objective(rates: RateReport) -> float:
    """Max-min objective value: the worst rate over all users of both phases."""
    return rates.min_rate


def reward(
    rate_value,
    report: ConstraintReport,
    mode: str = LITERAL,
    violation_cost: float = 1.0,
):
    """Scalar learning signal for one step; (B,) rate values and a batch
    report give (B,) rewards.

    literal: rate * (1 + number of satisfied constraints), i.e. the rate plus
    one rate-sized bonus per satisfied constraint.  penalty: rate minus a
    fixed cost per violated constraint.
    """
    satisfied = report.satisfied_counts
    if satisfied.ndim == 0:  # one decision: a float reward
        rate_value, satisfied = float(rate_value), int(satisfied)
    if mode == LITERAL:
        return rate_value * (1.0 + satisfied)
    if mode == PENALTY:
        return rate_value - violation_cost * (N_CONSTRAINTS - satisfied)
    raise ValueError(f"reward mode must be '{LITERAL}' or '{PENALTY}', got {mode!r}")
