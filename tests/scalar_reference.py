"""Frozen one-decision-at-a-time physics, kept as the reference for the
batched kernel in ``srnoma.env``, ``srnoma.rates`` and ``srnoma.problem``.

This is the scalar code those modules ran before they took a leading batch
axis: per-column beam decoding, running-sum and running-mask SIC
interference, float-by-float constraint slacks, and the per-candidate loops
of random search and the grid oracle.  It also keeps the channel draw as
``srnoma.network`` first ran it: one frame per call and one
``standard_normal`` call per block part, where the package takes each
frame's normals in one call and draws many frames as lanes of one draw.  It
is not imported by the package; ``test_batched.py`` and ``test_network.py``
compare the fast code against it on fuzzed inputs.  Only the containers
(``DecisionVariables``, ``RateReport``, ``ConstraintReport``,
``RisCoefficients``, ``ChannelRealization``) and channel helpers
(``path_loss``, ``ula_steering``) come from the package.

Last, it keeps the per-array network updates ``srnoma.nn`` and
``srnoma.agents.td3`` ran before each net got one flat parameter buffer:
backpropagation into freshly allocated gradient arrays, SGD and Adam steps
that loop over the parameter arrays, and the per-array soft update.
``test_nn.py`` compares the flat engine against them bit for bit, reading the
engine's flat gradients per parameter through ``split``.  It also
keeps the one-state policy draws the agents made before they acted on a
block of states in one call: one single-row forward and one
``standard_normal`` call per state; and the one-state observation normaliser
call ``ObsNormalizer`` made before it took blocks of states.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from srnoma.env import action_dim
from srnoma.harness import SearchResult
from srnoma.network import ChannelRealization, SystemConfig, path_loss, ula_steering
from srnoma.problem import CONSTRAINT_NAMES, N_CONSTRAINTS, ConstraintReport
from srnoma.rates import DecisionVariables, RateReport
from srnoma.ris import ACTIVE, PASSIVE, RisCoefficients, response_vector

_TWO_PI = 2.0 * np.pi
_MAX_EXP2 = 1023.0


# --------------------------------------------------------------------------
# channel draw


def _sin_toward(origin: np.ndarray, target: np.ndarray) -> float:
    d = target - origin
    dist = math.hypot(d[0], d[1])
    if dist == 0.0:
        raise ValueError("co-located nodes have no steering direction")
    return d[1] / dist


def _rayleigh(rng: np.random.Generator, shape: tuple, variance) -> np.ndarray:
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _rician(rng: np.random.Generator, los_unit: np.ndarray, variance, k_factor: float):
    los_gain = math.sqrt(k_factor / (k_factor + 1.0))
    nlos = _rayleigh(rng, los_unit.shape, 1.0 / (k_factor + 1.0))
    return np.sqrt(np.asarray(variance, dtype=float)) * (los_gain * los_unit + nlos)


def draw_realization(cfg: SystemConfig, placement, seed: int) -> ChannelRealization:
    rng = np.random.Generator(np.random.Philox(seed))
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    g_bs, g_ris = cfg.bs_antenna_gain, cfg.ris_element_gain
    pl = lambda d: path_loss(d, cfg.carrier_hz, cfg.path_loss_exponent)

    var_sbd = pl(cfg.d_bs_sbd_m) * g_bs
    h1 = _rayleigh(rng, (n, i), var_sbd)
    g1 = _rayleigh(rng, (n, i), var_sbd)

    var_h2 = pl(placement.d_bs_asris()) * g_bs * g_ris
    los_h2 = np.outer(
        ula_steering(m, _sin_toward(placement.asris, placement.bs)),
        ula_steering(n, _sin_toward(placement.bs, placement.asris)).conj(),
    )
    h2 = _rician(rng, los_h2, var_h2, cfg.rician_k)

    var_h3 = np.array([pl(d) * g_bs for d in placement.d_bs_sue_reflect()])
    h3 = _rayleigh(rng, (n, i), var_h3[None, :])

    var_g2r = np.array([pl(d) * g_ris for d in placement.d_asris_sue_reflect()])
    los_g2r = np.stack(
        [
            ula_steering(m, _sin_toward(placement.asris, placement.sue_reflect[k])).conj()
            for k in range(i)
        ]
    )
    g2r = _rician(rng, los_g2r, var_g2r[:, None], cfg.rician_k)

    var_g2t = np.array([pl(d) * g_ris for d in placement.d_asris_sue_transmit()])
    los_g2t = np.stack(
        [
            ula_steering(m, _sin_toward(placement.asris, placement.sue_transmit[k])).conj()
            for k in range(i)
        ]
    )
    g2t = _rician(rng, los_g2t, var_g2t[:, None], cfg.rician_k)

    return ChannelRealization(h1, g1, h2, h3, g2r, g2t, seed)


# --------------------------------------------------------------------------
# action decoding


def _unit_columns(raw: np.ndarray, n: int, i: int) -> np.ndarray:
    cols = np.empty((n, i), dtype=complex)
    for k in range(i):
        chunk = raw[2 * n * k : 2 * n * (k + 1)]
        col = chunk[:n] + 1j * chunk[n:]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            col = np.zeros(n, dtype=complex)
            col[0] = 1.0
            norm = 1.0
        cols[:, k] = col / norm
    return cols


def decode_action(action, cfg: SystemConfig, ris_mode: str = ACTIVE,
                  rate_cap: float = 1.0) -> DecisionVariables:
    a = np.asarray(action, dtype=float)
    if a.shape != (action_dim(cfg),):
        raise ValueError(f"action must have shape ({action_dim(cfg)},), got {a.shape}")
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    unit = (a + 1.0) / 2.0

    rate_target = float(unit[0]) * rate_cap
    eta = unit[1 : 1 + i]
    tau = unit[1 + i : 1 + 2 * i]
    power = unit[1 + 2 * i : 1 + 3 * i] * cfg.p_bs_max_watts
    cursor = 1 + 3 * i
    w1 = _unit_columns(a[cursor : cursor + 2 * n * i], n, i)
    cursor += 2 * n * i
    w2 = _unit_columns(a[cursor : cursor + 2 * n * i], n, i)
    cursor += 2 * n * i
    if ris_mode == ACTIVE:
        beta_t = unit[cursor : cursor + m] * (cfg.p_asris_watts / 2.0)
        beta_r = unit[cursor + m : cursor + 2 * m] * (cfg.p_asris_watts / 2.0)
    else:
        beta_t = unit[cursor : cursor + m]
        beta_r = 1.0 - beta_t
    cursor += 2 * m
    theta_t = (a[cursor : cursor + m] + 1.0) * math.pi
    theta_r = (a[cursor + m : cursor + 2 * m] + 1.0) * math.pi

    coeff = RisCoefficients(beta_t, beta_r, theta_t, theta_r, mode=ris_mode)
    return DecisionVariables(rate_target, eta, tau, power, w1, w2, coeff)


# --------------------------------------------------------------------------
# rates


def _sic_order(gains: np.ndarray) -> np.ndarray:
    return np.argsort(-np.asarray(gains, dtype=float), kind="stable")


def _interference_prefix(strengths: np.ndarray, order: np.ndarray) -> np.ndarray:
    interference = np.zeros_like(strengths)
    running = 0.0
    for idx in order:
        interference[idx] = running
        running += strengths[idx]
    return interference


def _phase1_all(ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig):
    k = cfg.symbols_per_bd_symbol
    g_norm2 = np.sum(np.abs(ch.g1) ** 2, axis=0)
    beam = np.abs(np.einsum("ni,ni->i", ch.h1.conj(), dv.w1)) ** 2
    strengths = dv.power * dv.eta * g_norm2 * beam
    order = _sic_order(strengths)
    interference = _interference_prefix(strengths, order)
    sinr = k * strengths / (interference + cfg.bandwidth_hz * cfg.noise_bs_watts)
    with np.errstate(invalid="ignore"):
        rate = (cfg.bandwidth_hz * dv.tau / k) * np.log2(1.0 + sinr)
    return rate, sinr, order


def _phase2_all(ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig, side: str):
    response = response_vector(dv.ris, side)
    if side == "reflect":
        rows = (ch.g2r * response[None, :]) @ ch.h2 + ch.h3.conj().T
        summed = ch.g2r.sum(axis=0) * response
    else:
        rows = (ch.g2t * response[None, :]) @ ch.h2
        summed = ch.g2t.sum(axis=0) * response
    c = rows @ dv.w2
    strengths = dv.power * np.abs(np.diag(c)) ** 2
    order = _sic_order(strengths)
    cross = dv.power[None, :] * np.abs(c) ** 2
    interference = np.zeros(len(order))
    running_mask = np.zeros(len(order))
    for idx in order:
        interference[idx] = cross[idx] @ running_mask
        running_mask[idx] = 1.0
    surface_noise = np.sum(np.abs(summed) ** 2) * cfg.noise_asris_watts
    noise = cfg.bandwidth_hz * (surface_noise + cfg.noise_sue_watts)
    sinr = strengths / (interference + noise)
    with np.errstate(invalid="ignore"):
        rate = cfg.bandwidth_hz * (1.0 - dv.tau) * np.log2(1.0 + sinr)
    return rate, sinr, order


def rate_report(ch: ChannelRealization, dv: DecisionVariables, cfg: SystemConfig) -> RateReport:
    r1, s1, o1 = _phase1_all(ch, dv, cfg)
    r2r, s2r, o2r = _phase2_all(ch, dv, cfg, "reflect")
    r2t, s2t, o2t = _phase2_all(ch, dv, cfg, "transmit")
    return RateReport(r1, r2r, r2t, s1, s2r, s2t, o1, o2r, o2t)


def min_rate(rates: RateReport) -> float:
    return float(min(rates.phase1_rate.min(), rates.phase2_reflect_rate.min(),
                     rates.phase2_transmit_rate.min()))


def sum_rate(rates: RateReport) -> float:
    return float(rates.phase1_rate.sum() + rates.phase2_reflect_rate.sum()
                 + rates.phase2_transmit_rate.sum())


# --------------------------------------------------------------------------
# constraints


def _harvested_energy(ch, dv, cfg) -> np.ndarray:
    beam = np.abs(np.einsum("ni,ni->i", ch.h1.conj(), dv.w1)) ** 2
    return cfg.energy_conversion_efficiency * dv.power * (1.0 - dv.eta) * (1.0 - dv.tau) * beam


def _ordering_slack(rates: np.ndarray, order: np.ndarray) -> float:
    if len(order) < 2:
        return 0.0
    ordered = rates[order]
    return float(np.min(ordered[:-1] - ordered[1:]))


def _required_sinr(rate_target: float, time_share, spread: float, bandwidth: float):
    share = np.asarray(time_share, dtype=float)
    if rate_target <= 0.0:
        return np.zeros_like(share)
    with np.errstate(divide="ignore"):
        exponent = np.where(share > 0.0, spread * rate_target / (bandwidth * share), np.inf)
    return np.exp2(np.minimum(exponent, _MAX_EXP2)) - 1.0


def evaluate_constraints(ch, dv: DecisionVariables, cfg: SystemConfig,
                         rates: RateReport) -> ConstraintReport:
    slacks = np.zeros(N_CONSTRAINTS)
    cap = cfg.p_asris_watts / 2.0
    coeff = dv.ris
    if coeff.mode == PASSIVE:
        slacks[0] = -float(np.max(np.abs(coeff.beta_t + coeff.beta_r - 1.0)))
        slacks[1] = 0.0
    else:
        slacks[0] = 0.0
        slacks[1] = float(cap - max(coeff.beta_t.max(), coeff.beta_r.max()))
    thetas = np.concatenate([coeff.theta_t, coeff.theta_r])
    slacks[2] = float(np.min(np.minimum(thetas, _TWO_PI - thetas)))
    slacks[3] = float(np.min(np.minimum(cfg.p_bs_max_watts - dv.power, dv.power)))
    slacks[4] = float(np.min(np.minimum(dv.eta, 1.0 - dv.eta)))
    slacks[5] = float(np.min(np.minimum(dv.tau, 1.0 - dv.tau)))
    slacks[6] = float(np.min(_harvested_energy(ch, dv, cfg) - cfg.harvest_threshold_joules))
    slacks[7] = _ordering_slack(rates.phase1_rate, rates.phase1_order)
    slacks[8] = float(np.min([
        _ordering_slack(rates.phase2_reflect_rate, rates.phase2_reflect_order),
        _ordering_slack(rates.phase2_transmit_rate, rates.phase2_transmit_order),
    ]))
    need1 = _required_sinr(dv.rate_target, dv.tau, float(cfg.symbols_per_bd_symbol),
                           cfg.bandwidth_hz)
    slacks[9] = float(np.min(rates.phase1_sinr - need1))
    need2 = _required_sinr(dv.rate_target, 1.0 - dv.tau, 1.0, cfg.bandwidth_hz)
    slacks[10] = float(np.min([
        np.min(rates.phase2_reflect_sinr - need2),
        np.min(rates.phase2_transmit_sinr - need2),
    ]))
    return ConstraintReport(slacks >= 0.0, slacks)


# --------------------------------------------------------------------------
# search baselines, one candidate at a time


def evaluate_decision(cfg, ch, dv) -> tuple[float, float, bool]:
    rates = rate_report(ch, dv, cfg)
    scored = dataclasses.replace(dv, rate_target=min_rate(rates))
    report = evaluate_constraints(ch, scored, cfg, rates)
    structural = CONSTRAINT_NAMES.index("rate_target_phase1")
    return min_rate(rates), sum_rate(rates), bool(report.flags[:structural].all())


def _keep_best(best: SearchResult, dv, scored) -> None:
    min_rate_value, sum_rate_value, feasible = scored
    if feasible:
        best.feasible_count += 1
        if min_rate_value > best.objective:
            best.objective = min_rate_value
            best.decision = dv
            best.feasible = True
            best.sum_rate = sum_rate_value


def random_search(cfg, ch, ris_mode: str, budget: int, seed: int) -> SearchResult:
    rng = np.random.Generator(np.random.Philox(seed))
    dim = action_dim(cfg)
    best = SearchResult(-math.inf, None, False, 0, int(budget))
    for _ in range(int(budget)):
        dv = decode_action(rng.uniform(-1.0, 1.0, dim), cfg, ris_mode, rate_cap=1.0)
        _keep_best(best, dv, evaluate_decision(cfg, ch, dv))
    return best


def grid_oracle(cfg, ch, ris_mode: str, axes: dict) -> SearchResult:
    """Per-point loop over the product of the given axes (eta, tau, power,
    beta_t, [beta_r,] theta_t, theta_r), in itertools.product order."""
    names = list(axes)
    one = np.ones((1, 1), dtype=complex)
    best = SearchResult(-math.inf, None, False, 0, math.prod(len(v) for v in axes.values()))
    for combo in itertools.product(*(axes[n] for n in names)):
        value = dict(zip(names, combo))
        beta_t = np.array([value["beta_t"]])
        beta_r = np.array([value["beta_r"]]) if ris_mode == ACTIVE else 1.0 - beta_t
        coeff = RisCoefficients(beta_t, beta_r, np.array([value["theta_t"]]),
                                np.array([value["theta_r"]]), mode=ris_mode)
        dv = DecisionVariables(0.0, np.array([value["eta"]]), np.array([value["tau"]]),
                               np.array([value["power"]]), one, one, coeff)
        _keep_best(best, dv, evaluate_decision(cfg, ch, dv))
    return best


# --------------------------------------------------------------------------
# per-array network updates


def split(flat: np.ndarray, shapes) -> list:
    """Per-parameter views of a flat buffer that holds arrays of ``shapes``
    end to end, as a net's or a policy's ``flat`` and gradients do."""
    cuts = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [part.reshape(shape) for part, shape in zip(np.split(flat, list(cuts)), shapes)]


def mlp_backward(net, cache: list, grad_out: np.ndarray) -> tuple[list, np.ndarray]:
    """Mlp.backward over ``net.weights``, each gradient a new array."""
    grads = [None] * (2 * len(net.weights))
    g = np.asarray(grad_out, dtype=float)
    for layer in range(len(net.weights) - 1, -1, -1):
        a_in = cache[layer]
        grads[2 * layer] = g.T @ a_in
        grads[2 * layer + 1] = g.sum(axis=0)
        g = g @ net.weights[layer]
        if layer > 0:
            g = g * (1.0 - cache[layer] ** 2)
    return grads, g


class Sgd:
    def __init__(self, lr: float) -> None:
        self.lr = float(lr)

    def step(self, params: list, grads: list) -> None:
        for p, g in zip(params, grads):
            if not np.all(np.isfinite(g)):
                raise RuntimeError("non-finite gradient in SGD step")
            p -= self.lr * g


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list | None = None
        self._v: list | None = None

    def step(self, params: list, grads: list) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            if not np.all(np.isfinite(g)):
                raise RuntimeError("non-finite gradient in Adam step")
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def soft_update(target_params: list, online_params: list, mix: float) -> None:
    """target <- (1 - mix) * target + mix * online, parameter-wise."""
    for t, o in zip(target_params, online_params):
        t *= 1.0 - mix
        t += mix * o


def policy_sample(policy, state: np.ndarray, rng: np.random.Generator):
    """One draw of a ``GaussianPolicy`` on one (S,) state: (action,
    pre-squash sample, log-density)."""
    mu = policy.net.forward(state)
    sigma = np.exp(policy.log_std)
    noise = rng.standard_normal(len(mu))
    pre = mu + sigma * noise
    action = np.tanh(pre)
    log_prob = policy._log_prob_given(mu, pre)
    return action, pre, float(log_prob)


def forward_rows(net, x: np.ndarray) -> np.ndarray:
    """A net's forward on each row of a (k, S) stack, one (S,) state per call."""
    return np.stack([net.forward(row) for row in x])


def observe_row(normalizer, x: np.ndarray) -> np.ndarray:
    """One ``ObsNormalizer`` call on one (S,) state: add it to the Welford
    statistics, then normalise it by them."""
    normalizer.count += 1
    delta = x - normalizer.mean
    normalizer.mean += delta / normalizer.count
    normalizer.m2 += delta * (x - normalizer.mean)
    var = normalizer.m2 / max(normalizer.count, 1)
    return (x - normalizer.mean) / np.sqrt(var + 1e-8)
