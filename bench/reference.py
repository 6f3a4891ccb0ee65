"""Independent reference scorer for srnoma decisions.

Rebuilds, from the model's definitions and with scalar ``math``/``cmath``
arithmetic only, what the package computes in ``srnoma.env``,
``srnoma.rates`` and ``srnoma.problem``: action decoding, the automatic rate
cap, the per-user SINRs and rates of both frame phases, the SIC decoding
orders, the signed slacks of the eleven constraint families C1..C11 and the
literal reward.  Nothing is imported from the package.  Inputs are read
element by element: a configuration is any object with the ``SystemConfig``
attribute names, a channel any object with the six blocks ``h1 g1 h2 h3 g2r
g2t`` (arrays or nested sequences), a decision any object shaped like
``DecisionVariables``.

Summation orders differ from the package's vectorised code, so results agree
to rounding, not bit for bit.  :func:`ambiguous` tells which constraint
verdicts sit within rounding of their boundary, where either verdict is
right.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

ACTIVE = "active"
PASSIVE = "passive"
N_CONSTRAINTS = 11
STRUCTURAL = 9  # C1..C9; C10/C11 are the rate-target families
TWO_PI = 2.0 * math.pi
MAX_EXP2 = 1023.0  # largest exp2 exponent that stays finite in float64
REL_TOL = 1e-9


def _rows(block) -> list:
    """A 2-D block as a list of rows of Python complex numbers."""
    rows = block.tolist() if hasattr(block, "tolist") else block
    return [[complex(v) for v in row] for row in rows]


def _floats(values) -> list:
    values = values.tolist() if hasattr(values, "tolist") else values
    return [float(v) for v in values]


@dataclasses.dataclass
class Channel:
    h1: list  # (N, I)
    g1: list  # (N, I)
    h2: list  # (M, N)
    h3: list  # (N, I)
    g2r: list  # (I, M)
    g2t: list  # (I, M)

    def blocks(self) -> tuple:
        return (self.h1, self.g1, self.h2, self.h3, self.g2r, self.g2t)


@dataclasses.dataclass
class Decision:
    rate_target: float
    eta: list
    tau: list
    power: list
    w1: list  # (N, I)
    w2: list  # (N, I)
    beta_t: list
    beta_r: list
    theta_t: list
    theta_r: list
    mode: str


@dataclasses.dataclass
class Score:
    """Everything the reference derives for one (channel, decision) pair."""

    phase1_rate: list
    phase2_reflect_rate: list
    phase2_transmit_rate: list
    phase1_sinr: list
    phase2_reflect_sinr: list
    phase2_transmit_sinr: list
    phase1_order: list
    phase2_reflect_order: list
    phase2_transmit_order: list
    slacks: list
    scales: list  # per-family magnitude of the compared quantities

    @property
    def flags(self) -> list:
        return [s >= 0.0 for s in self.slacks]

    @property
    def satisfied_count(self) -> int:
        return sum(self.flags)

    @property
    def all_rates(self) -> list:
        return self.phase1_rate + self.phase2_reflect_rate + self.phase2_transmit_rate

    @property
    def min_rate(self) -> float:
        return _nan_min(self.all_rates)

    @property
    def sum_rate(self) -> float:
        return math.fsum(self.all_rates)


def channel_from(ch) -> Channel:
    return Channel(*(_rows(getattr(ch, name)) for name in ("h1", "g1", "h2", "h3", "g2r", "g2t")))


def channel_from_state(state, n: int, m: int, users: int) -> Channel:
    """Parse an un-normalised observation: (real, imag) flattenings of h1, g1,
    h2, h3, g2r, g2t in that order, each block row-major."""
    flat = _floats(state)
    shapes = ((n, users), (n, users), (m, n), (n, users), (users, m), (users, m))
    blocks, cursor = [], 0
    for rows, cols in shapes:
        size = rows * cols
        real = flat[cursor : cursor + size]
        imag = flat[cursor + size : cursor + 2 * size]
        cursor += 2 * size
        blocks.append(
            [[complex(real[r * cols + c], imag[r * cols + c]) for c in range(cols)]
             for r in range(rows)]
        )
    if cursor != len(flat):
        raise ValueError(f"state has {len(flat)} entries, the scene needs {cursor}")
    return Channel(*blocks)


def decision_from(dv) -> Decision:
    coeff = dv.ris
    return Decision(
        float(dv.rate_target), _floats(dv.eta), _floats(dv.tau), _floats(dv.power),
        _rows(dv.w1), _rows(dv.w2),
        _floats(coeff.beta_t), _floats(coeff.beta_r),
        _floats(coeff.theta_t), _floats(coeff.theta_r), coeff.mode,
    )


def action_dim(cfg) -> int:
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    return 1 + 3 * users + 4 * n * users + 4 * m


def _unit_columns(raw: list, n: int, users: int) -> list:
    """Beam columns from (N real, N imaginary) chunks, unit norm, e1 if zero."""
    cols = []
    for k in range(users):
        chunk = raw[2 * n * k : 2 * n * (k + 1)]
        col = [complex(chunk[a], chunk[n + a]) for a in range(n)]
        norm = math.sqrt(sum(v.real * v.real + v.imag * v.imag for v in col))
        if norm == 0.0:
            col = [complex(1.0 if a == 0 else 0.0, 0.0) for a in range(n)]
        else:
            col = [complex(v.real / norm, v.imag / norm) for v in col]
        cols.append(col)
    return [[cols[k][a] for k in range(users)] for a in range(n)]


def decode(action, cfg, mode: str, rate_cap: float) -> Decision:
    """Affine map of a box action onto the decision variables (no clipping:
    the environment clips before decoding, the search baselines do not)."""
    a = _floats(action)
    if len(a) != action_dim(cfg):
        raise ValueError(f"action needs {action_dim(cfg)} entries, got {len(a)}")
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    unit = [(x + 1.0) / 2.0 for x in a]
    eta = unit[1 : 1 + users]
    tau = unit[1 + users : 1 + 2 * users]
    power = [u * cfg.p_bs_max_watts for u in unit[1 + 2 * users : 1 + 3 * users]]
    cursor = 1 + 3 * users
    w1 = _unit_columns(a[cursor : cursor + 2 * n * users], n, users)
    cursor += 2 * n * users
    w2 = _unit_columns(a[cursor : cursor + 2 * n * users], n, users)
    cursor += 2 * n * users
    if mode == ACTIVE:
        half = cfg.p_asris_watts / 2.0
        beta_t = [u * half for u in unit[cursor : cursor + m]]
        beta_r = [u * half for u in unit[cursor + m : cursor + 2 * m]]
    else:
        beta_t = unit[cursor : cursor + m]
        beta_r = [1.0 - b for b in beta_t]
    cursor += 2 * m
    theta_t = [(x + 1.0) * math.pi for x in a[cursor : cursor + m]]
    theta_r = [(x + 1.0) * math.pi for x in a[cursor + m : cursor + 2 * m]]
    return Decision(unit[0] * rate_cap, eta, tau, power, w1, w2,
                    beta_t, beta_r, theta_t, theta_r, mode)


def rate_cap_auto(ch: Channel, cfg) -> float:
    """log2(1 + K * P_max * strongest |entry|^2 / smallest noise floor)."""
    gain = max(abs(v) ** 2 for block in ch.blocks() for row in block for v in row)
    noise = min(cfg.noise_bs_watts, cfg.noise_asris_watts, cfg.noise_sue_watts)
    return math.log2(1.0 + cfg.symbols_per_bd_symbol * cfg.p_bs_max_watts * gain / noise)


def literal_reward(rate_value: float, satisfied: int) -> float:
    return float(rate_value) * (1.0 + satisfied)


def _nan_min(values) -> float:
    """min() that propagates NaN regardless of position."""
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return min(values)


def _log2_rate(share: float, sinr: float) -> float:
    grown = 1.0 + sinr
    if grown > 0.0:
        return share * math.log2(grown)
    if grown == 0.0:
        return share * -math.inf
    return math.nan  # nonphysical decision (negative power), NaN by design


def _decoding_order(strengths: list) -> list:
    """Strongest first; ties keep the lower index first (sort is stable)."""
    return sorted(range(len(strengths)), key=lambda i: -strengths[i])


def _ordering_slack(rates: list, order: list) -> tuple:
    if len(order) < 2:
        return 0.0, 0.0
    drops = [rates[order[j]] - rates[order[j + 1]] for j in range(len(order) - 1)]
    scale = max((abs(r) for r in rates if math.isfinite(r)), default=0.0)
    return _nan_min(drops), scale


def _required_sinr(target: float, share: float, spread: float, bandwidth: float) -> float:
    """SINR needed for `target` in a slice of length `share`: the inverted
    rate formula, exponent clamped at MAX_EXP2 (and pinned there for an empty
    or negative slice)."""
    if target <= 0.0:
        return 0.0
    exponent = spread * target / (bandwidth * share) if share > 0.0 else math.inf
    return math.pow(2.0, min(exponent, MAX_EXP2)) - 1.0


def _phase1(ch: Channel, dv: Decision, cfg) -> tuple:
    n, users = cfg.n_bs_antennas, cfg.n_pairs
    k = cfg.symbols_per_bd_symbol
    beams, strengths = [], []
    for i in range(users):
        amp = sum(ch.h1[a][i].conjugate() * dv.w1[a][i] for a in range(n))
        beam = abs(amp) ** 2
        g_norm2 = sum(abs(ch.g1[a][i]) ** 2 for a in range(n))
        beams.append(beam)
        strengths.append(dv.power[i] * dv.eta[i] * g_norm2 * beam)
    order = _decoding_order(strengths)
    interference = [0.0] * users
    running = 0.0
    for idx in order:
        interference[idx] = running
        running += strengths[idx]
    floor = cfg.bandwidth_hz * cfg.noise_bs_watts
    sinr = [k * strengths[i] / (interference[i] + floor) for i in range(users)]
    rate = [_log2_rate(cfg.bandwidth_hz * dv.tau[i] / k, sinr[i]) for i in range(users)]
    return rate, sinr, order, beams


def _phase2(ch: Channel, dv: Decision, cfg, side: str) -> tuple:
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    beta, theta = (dv.beta_r, dv.theta_r) if side == "reflect" else (dv.beta_t, dv.theta_t)
    if any(b < 0.0 for b in beta):
        raise ValueError("invalid surface coefficients: negative amplitude gain")
    response = [math.sqrt(beta[e]) * cmath.exp(1j * theta[e]) for e in range(m)]
    g = ch.g2r if side == "reflect" else ch.g2t
    rows = []
    for i in range(users):
        row = []
        for a in range(n):
            acc = sum(g[i][e] * response[e] * ch.h2[e][a] for e in range(m))
            if side == "reflect":
                acc += ch.h3[a][i].conjugate()
            row.append(acc)
        rows.append(row)
    c = [[sum(rows[i][a] * dv.w2[a][j] for a in range(n)) for j in range(users)]
         for i in range(users)]
    strengths = [dv.power[i] * abs(c[i][i]) ** 2 for i in range(users)]
    order = _decoding_order(strengths)
    interference = [0.0] * users
    decoded = []
    for idx in order:
        interference[idx] = sum(dv.power[j] * abs(c[idx][j]) ** 2 for j in decoded)
        decoded.append(idx)
    surface = sum(abs(sum(g[i][e] for i in range(users)) * response[e]) ** 2
                  for e in range(m)) * cfg.noise_asris_watts
    noise = cfg.bandwidth_hz * (surface + cfg.noise_sue_watts)
    sinr = [strengths[i] / (interference[i] + noise) for i in range(users)]
    rate = [_log2_rate(cfg.bandwidth_hz * (1.0 - dv.tau[i]), sinr[i]) for i in range(users)]
    return rate, sinr, order


def score(ch, dv, cfg) -> Score:
    """Rates, orders and the C1..C11 slacks of one decision on one channel.

    ``ch`` and ``dv`` may be package objects or this module's own.
    """
    ch = ch if isinstance(ch, Channel) else channel_from(ch)
    dv = dv if isinstance(dv, Decision) else decision_from(dv)
    users = cfg.n_pairs
    r1, s1, o1, beams = _phase1(ch, dv, cfg)
    rr, sr, orr = _phase2(ch, dv, cfg, "reflect")
    rt, st, ort = _phase2(ch, dv, cfg, "transmit")

    # C1..C6 repeat the package's elementwise arithmetic exactly, so their
    # scale stays 0 (no rounding allowance); C7..C11 involve sums whose order
    # differs and carry the magnitude of the compared terms
    slacks, scales = [0.0] * N_CONSTRAINTS, [0.0] * N_CONSTRAINTS
    cap = cfg.p_asris_watts / 2.0
    if dv.mode == PASSIVE:
        slacks[0] = -max(abs(bt + br - 1.0) for bt, br in zip(dv.beta_t, dv.beta_r))
    else:
        slacks[1] = cap - max(dv.beta_t + dv.beta_r)
    slacks[2] = min(min(t, TWO_PI - t) for t in dv.theta_t + dv.theta_r)
    slacks[3] = min(min(cfg.p_bs_max_watts - p, p) for p in dv.power)
    slacks[4] = min(min(e, 1.0 - e) for e in dv.eta)
    slacks[5] = min(min(t, 1.0 - t) for t in dv.tau)
    harvest = [
        cfg.energy_conversion_efficiency * dv.power[i] * (1.0 - dv.eta[i])
        * (1.0 - dv.tau[i]) * beams[i]
        for i in range(users)
    ]
    slacks[6] = min(h - cfg.harvest_threshold_joules for h in harvest)
    scales[6] = max([cfg.harvest_threshold_joules] + [abs(h) for h in harvest])
    slacks[7], scales[7] = _ordering_slack(r1, o1)
    slack_r, scale_r = _ordering_slack(rr, orr)
    slack_t, scale_t = _ordering_slack(rt, ort)
    slacks[8], scales[8] = _nan_min([slack_r, slack_t]), max(scale_r, scale_t)

    spread, bandwidth = float(cfg.symbols_per_bd_symbol), cfg.bandwidth_hz
    need1 = [_required_sinr(dv.rate_target, dv.tau[i], spread, bandwidth) for i in range(users)]
    need2 = [_required_sinr(dv.rate_target, 1.0 - dv.tau[i], 1.0, bandwidth) for i in range(users)]
    slacks[9] = _nan_min(s1[i] - need1[i] for i in range(users))
    scales[9] = max(max(abs(s1[i]), need1[i]) for i in range(users))
    slacks[10] = _nan_min([s - need2[i] for side in (sr, st) for i, s in enumerate(side)])
    scales[10] = max(max(abs(side[i]), need2[i]) for side in (sr, st) for i in range(users))
    return Score(r1, rr, rt, s1, sr, st, o1, orr, ort, slacks, scales)


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal to rounding: both NaN, equal infinities, or |a - b| within
    REL_TOL * max(|a|, |b|, scale)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def ambiguous(ref: Score, family: int) -> bool:
    """True when the family's slack is within rounding of zero, so the two
    verdicts may legitimately differ."""
    slack, scale = ref.slacks[family], ref.scales[family]
    return scale > 0.0 and math.isfinite(slack) and abs(slack) <= REL_TOL * scale


def structural_ok(ref: Score) -> bool:
    """C1..C9 hold (a verdict within rounding of the boundary counts as held)."""
    return all(ref.flags[k] or ambiguous(ref, k) for k in range(STRUCTURAL))


def satisfied_range(ref: Score) -> tuple:
    """Lowest and highest satisfied counts consistent with rounding."""
    unsure = sum(ambiguous(ref, k) for k in range(N_CONSTRAINTS))
    sure = sum(f and not ambiguous(ref, k) for k, f in enumerate(ref.flags))
    return sure, sure + unsure
