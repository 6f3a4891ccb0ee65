"""Episodic decision environment over the two-phase backscatter network.

One step = one frame: the agent sees the current channel realization (all
blocks flattened into real/imaginary pairs), picks every resource-allocation
variable through a box action in [-1, 1]^D, and receives the constraint-aware
throughput reward.  The next state is a fresh fading draw; node positions are
redrawn once per episode at reset.

Action layout (D = 1 + 3I + 4NI + 4M), each component mapped affinely from
[-1, 1] onto its physical range:

    [0]                  rate target in [0, rate_cap]
    [1 .. I]             eta_i in [0, 1]
    [1+I .. 2I]          tau_i in [0, 1]
    [1+2I .. 3I]         P_i in [0, p_bs_max]
    next 2NI             phase-1 beam columns; per column N real then N
                         imaginary parts, normalized to unit norm (e1 when all
                         zero)
    next 2NI             phase-2 beam columns, same encoding
    next M, M            beta_t, beta_r: active mode scales into
                         [0, p_asris / 2]; passive mode uses the beta_t block
                         for the split (beta_r = 1 - beta_t) and ignores the
                         beta_r block
    next M, M            theta_t, theta_r in [0, 2 pi]

The state layout is the concatenation of (real, imag) flattenings of h1, g1,
h2, h3, g2r, g2t in that order.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from . import problem, ris
from .network import (ChannelRealization, SystemConfig, derive_keys, draw_realization,
                      make_placement, next_seed, philox)
from .rates import DecisionVariables, RateReport, rate_report, row_dot


class EnvProtocolError(RuntimeError):
    """step() called on a finished or never-reset environment."""


def state_dim(cfg: SystemConfig) -> int:
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    return 2 * (n * i + n * i + m * n + n * i + i * m + i * m)


def action_dim(cfg: SystemConfig) -> int:
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    return 1 + 3 * i + 4 * n * i + 4 * m


def state_vector(ch: ChannelRealization) -> np.ndarray:
    parts = []
    for block in ch.blocks():
        parts.append(block.real.ravel())
        parts.append(block.imag.ravel())
    return np.concatenate(parts)


def rate_cap_auto(ch: ChannelRealization, cfg: SystemConfig) -> float:
    """Loose upper envelope on any achievable per-user rate for this draw:
    spreading gain times peak power times the strongest channel entry over the
    smallest noise floor."""
    gain = max(float(np.max(np.abs(block) ** 2)) for block in ch.blocks())
    noise = min(cfg.noise_bs_watts, cfg.noise_asris_watts, cfg.noise_sue_watts)
    return math.log2(1.0 + cfg.symbols_per_bd_symbol * cfg.p_bs_max_watts * gain / noise)


def _unit_columns(raw: np.ndarray, n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm beam columns of both phases from their 4NI raw entries (per
    column N real then N imaginary parts; e1 when all zero): w1 and w2, each
    (..., N, I)."""
    blocks = raw.reshape(raw.shape[:-1] + (2, i, 2, n))
    cols = blocks[..., 0, :] + 1j * blocks[..., 1, :]  # (..., 2, I, N)
    # the norm as np.linalg.norm takes it: the real and the imaginary parts
    # dotted with themselves, which keeps its last bit
    norm = np.sqrt(row_dot(cols.real, cols.real) + row_dot(cols.imag, cols.imag))
    zero = norm == 0.0
    if zero.any():
        cols[zero] = np.eye(1, n)[0]
        norm[zero] = 1.0
    beams = (cols / norm[..., None]).swapaxes(-1, -2).copy()
    return beams[..., 0, :, :], beams[..., 1, :, :]


def decode_action(
    action: np.ndarray,
    cfg: SystemConfig,
    ris_mode: str = ris.ACTIVE,
    rate_cap: float = 1.0,
) -> DecisionVariables:
    """Map a box action to a physically valid decision (total on [-1, 1]^D).

    A (B, D) array of actions decodes to one batch of B decisions.
    """
    a = np.asarray(action, dtype=float)
    dim = action_dim(cfg)
    if a.ndim not in (1, 2) or a.shape[-1] != dim:
        raise ValueError(f"action must have shape ({dim},) or (B, {dim}), got {a.shape}")
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    unit = (a + 1.0) / 2.0  # componentwise [0, 1]

    rate_target = unit[..., 0] * rate_cap
    if a.ndim == 1:
        rate_target = float(rate_target)
    eta = unit[..., 1 : 1 + i]
    tau = unit[..., 1 + i : 1 + 2 * i]
    power = unit[..., 1 + 2 * i : 1 + 3 * i] * cfg.p_bs_max_watts
    cursor = 1 + 3 * i
    w1, w2 = _unit_columns(a[..., cursor : cursor + 4 * n * i], n, i)
    cursor += 4 * n * i
    if ris_mode == ris.ACTIVE:
        beta_t = unit[..., cursor : cursor + m] * (cfg.p_asris_watts / 2.0)
        beta_r = unit[..., cursor + m : cursor + 2 * m] * (cfg.p_asris_watts / 2.0)
    else:
        beta_t = unit[..., cursor : cursor + m]
        beta_r = 1.0 - beta_t
    cursor += 2 * m
    theta_t = (a[..., cursor : cursor + m] + 1.0) * math.pi
    theta_r = (a[..., cursor + m : cursor + 2 * m] + 1.0) * math.pi

    coeff = ris.RisCoefficients(beta_t, beta_r, theta_t, theta_r, mode=ris_mode)
    return DecisionVariables(rate_target, eta, tau, power, w1, w2, coeff)


@dataclasses.dataclass
class StepInfo:
    decision: DecisionVariables
    rates: RateReport
    constraints: problem.ConstraintReport
    min_rate: float
    satisfied_count: int
    rate_cap: float


@dataclasses.dataclass
class StepResult:
    state: np.ndarray
    reward: float
    done: bool
    info: StepInfo


class _RunningStats:
    """Welford running mean/variance over observed raw states."""

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        var = self._m2 / max(self.count, 1)
        return (x - self.mean) / np.sqrt(var + 1e-8)


class SrEnv:
    """Gym-style environment: reset(seed) -> state, step(action) -> StepResult.

    r_mode picks where the reward's rate factor comes from: "literal" trusts
    the action-supplied target (checked by C10/C11), "derived" substitutes the
    achieved min-rate before scoring, which satisfies C10/C11 by construction.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        episode_steps: int = 200,
        ris_mode: str = ris.ACTIVE,
        r_mode: str = "literal",
        reward_mode: str = problem.LITERAL,
        penalty_cost: float = 1.0,
        normalize_obs: bool = False,
        rate_cap: float | None = None,
    ) -> None:
        if ris_mode not in (ris.ACTIVE, ris.PASSIVE):
            raise ValueError(f"unknown surface mode {ris_mode!r}")
        if r_mode not in ("literal", "derived"):
            raise ValueError(f"r_mode must be 'literal' or 'derived', got {r_mode!r}")
        if episode_steps < 1:
            raise ValueError(f"episode_steps must be >= 1, got {episode_steps!r}")
        if rate_cap is not None and not 0.0 <= rate_cap < math.inf:
            raise ValueError(f"rate_cap must be finite and >= 0 (or None), got {rate_cap!r}")
        self.cfg = cfg
        self.episode_steps = int(episode_steps)
        self.ris_mode = ris_mode
        self.r_mode = r_mode
        self.reward_mode = reward_mode
        self.penalty_cost = penalty_cost
        self.normalize_obs = normalize_obs
        self.fixed_rate_cap = rate_cap
        self.state_dim = state_dim(cfg)
        self.action_dim = action_dim(cfg)
        self.placement = None
        self._stats = _RunningStats(self.state_dim)
        self._stats_frozen = False
        self._channel_rng = None
        self._step_count = 0
        self._done = True
        self._current: ChannelRealization | None = None

    def replicate(self) -> "SrEnv":
        """A fresh environment with identical configuration and fresh
        observation statistics (for A3C workers)."""
        return SrEnv(
            self.cfg,
            episode_steps=self.episode_steps,
            ris_mode=self.ris_mode,
            r_mode=self.r_mode,
            reward_mode=self.reward_mode,
            penalty_cost=self.penalty_cost,
            normalize_obs=self.normalize_obs,
            rate_cap=self.fixed_rate_cap,
        )

    def frozen_replica(self) -> "SrEnv":
        """A replica that normalizes observations with a frozen copy of this
        environment's statistics (for evaluating an agent trained here): it
        feeds the policy the inputs training fed it and never updates them."""
        twin = self.replicate()
        twin._stats = copy.deepcopy(self._stats)
        twin._stats_frozen = True
        return twin

    def _observe(self, ch: ChannelRealization) -> np.ndarray:
        raw = state_vector(ch)
        if not self.normalize_obs:
            return raw
        if not self._stats_frozen:
            self._stats.update(raw)
        return self._stats.normalize(raw)

    def reset(self, seed: int) -> np.ndarray:
        placement_key, channel_key = derive_keys(seed, 2)
        self.placement = make_placement(self.cfg, placement_key)
        self._channel_rng = philox(channel_key)
        self._current = self._draw()
        self._step_count = 0
        self._done = False
        return self._observe(self._current)

    def _draw(self) -> ChannelRealization:
        return draw_realization(self.cfg, self.placement, next_seed(self._channel_rng))

    def rate_cap(self) -> float:
        if self.fixed_rate_cap is not None:
            return self.fixed_rate_cap
        if self._current is None:
            raise EnvProtocolError("rate_cap() needs a current realization; call reset()")
        return rate_cap_auto(self._current, self.cfg)

    def step(self, action: np.ndarray) -> StepResult:
        if self._done or self._current is None:
            raise EnvProtocolError("step() called on a finished episode; call reset()")
        a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        cap = self.rate_cap()
        dv = decode_action(a, self.cfg, self.ris_mode, cap)
        rates = rate_report(self._current, dv, self.cfg)
        min_rate = problem.objective(rates)
        if self.r_mode == "derived":
            dv = dataclasses.replace(dv, rate_target=min_rate)
        report = problem.evaluate_constraints(self._current, dv, self.cfg, rates)
        rate_value = dv.rate_target if self.r_mode == "literal" else min_rate
        rew = problem.reward(rate_value, report, self.reward_mode, self.penalty_cost)

        self._step_count += 1
        self._done = self._step_count >= self.episode_steps
        self._current = self._draw()
        info = StepInfo(dv, rates, report, min_rate, report.satisfied_count, cap)
        return StepResult(self._observe(self._current), rew, self._done, info)
