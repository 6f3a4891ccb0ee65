"""Episodic decision environment over the two-phase backscatter network.

One step = one frame: the agent sees the current channel realization (all
blocks flattened into real/imaginary pairs), picks every resource-allocation
variable through a box action in [-1, 1]^D, and receives the constraint-aware
throughput reward.  The next state is the next fading draw; node positions are
redrawn once per episode at reset.

Fading is block-wise and no action changes a later channel, so the channels of
a whole episode depend on its seed alone.  Reset draws all of them at once, as
lanes, and exposes the states of every frame; the environment scores a block
of k frames in one kernel call, a single step being a block of one.  The
channel sequence of an episode is the same however it is stepped.

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

import dataclasses
import math

import numpy as np

from . import problem, ris
from .network import (ChannelRealization, SystemConfig, check_in, derive_keys,
                      draw_realization, make_placement, next_seed, philox)
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
    """The state of a frame, (S,); a realization with L lanes gives (L, S)."""
    lanes = ch.h1.shape[:-2]  # (L,) for L lanes, () for one frame
    parts = []
    for block in ch.blocks():
        parts.append(block.real.reshape(lanes + (-1,)))
        parts.append(block.imag.reshape(lanes + (-1,)))
    return np.concatenate(parts, axis=-1)


def rate_cap_auto(ch: ChannelRealization, cfg: SystemConfig):
    """Loose upper envelope on any achievable per-user rate for this draw:
    spreading gain times peak power times the strongest channel entry over the
    smallest noise floor.  A float, or an (L,) array for L lanes; each lane
    takes its logarithm from math.log2, as a single frame does."""
    lanes = ch.h1.shape[:-2]
    gain = np.max([(np.abs(block) ** 2).reshape(lanes + (-1,)).max(axis=-1)
                   for block in ch.blocks()], axis=0)
    noise = min(cfg.noise_bs_watts, cfg.noise_asris_watts, cfg.noise_sue_watts)
    bound = 1.0 + cfg.symbols_per_bd_symbol * cfg.p_bs_max_watts * gain / noise
    if not lanes:
        return math.log2(bound)
    return np.array([math.log2(x) for x in bound.tolist()])


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
    """What a block of k steps scored: the rates and constraint report of its
    k decisions, and per step the worst rate, the number of satisfied families
    and the rate cap its action was decoded with, each (k,)."""

    rates: RateReport
    constraints: problem.ConstraintReport
    min_rate: np.ndarray
    satisfied_count: np.ndarray
    rate_cap: np.ndarray


@dataclasses.dataclass
class StepResult:
    """A block of k steps: next states (k, S), rewards (k,), done flags (k,)
    and their StepInfo.  ``row(j)`` is step j alone, with Python scalars."""

    state: np.ndarray
    reward: np.ndarray
    done: np.ndarray
    info: StepInfo

    def row(self, j: int) -> "StepResult":
        info = self.info
        return StepResult(self.state[j], float(self.reward[j]), bool(self.done[j]),
                          StepInfo(info.rates.row(j), info.constraints.row(j),
                                   float(info.min_rate[j]), int(info.satisfied_count[j]),
                                   float(info.rate_cap[j])))


class SrEnv:
    """Gym-style environment: reset(seed) -> state, step(action) -> StepResult.

    The channels of an episode depend on its seed alone, never on the actions
    (frame t is keyed by the t-th seed of its seed stream), so ``reset`` draws
    all T + 1 seeds and frames at once, the terminal one included, and
    ``step`` drops them once it has scored the last one.  ``states`` holds
    the raw states of all T + 1 frames, (T + 1, S), read-only (None before
    the first reset).  ``step`` scores a block (k, D) of actions for the
    current frame and the next k - 1 in one kernel call and returns one
    StepResult whose fields carry the leading axis k; one action (D,) is a
    block of one and returns that block's ``row(0)``.  The states it returns
    are rows of ``states``.

    r_mode picks where the reward's rate factor comes from: "literal" trusts
    the action-supplied target (checked by C10/C11), "derived" substitutes the
    achieved min-rate before scoring, which satisfies C10/C11 by construction.
    States are always raw; normalize_obs asks train() to give the agent an
    observation normaliser.  Nothing carries over from one episode to the next.
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
        check_in((ris.ACTIVE, ris.PASSIVE), ris_mode=ris_mode)
        check_in(("literal", "derived"), r_mode=r_mode)
        check_in((problem.LITERAL, problem.PENALTY), reward_mode=reward_mode)
        check_in("[1, inf]", episode_steps=episode_steps)
        check_in("[0, inf)", penalty_cost=penalty_cost)
        check_in((False, True), normalize_obs=normalize_obs)
        if rate_cap is not None:
            check_in("[0, inf)", rate_cap=rate_cap)
        self.cfg = cfg
        self.episode_steps = episode_steps
        self.ris_mode = ris_mode
        self.r_mode = r_mode
        self.reward_mode = reward_mode
        self.penalty_cost = penalty_cost
        self.normalize_obs = normalize_obs
        self.fixed_rate_cap = rate_cap
        self.state_dim = state_dim(cfg)
        self.action_dim = action_dim(cfg)
        self._episode: ChannelRealization | None = None  # frames 0 .. T as lanes
        self.states: np.ndarray | None = None  # their states, (T + 1, S)
        self._t = self.episode_steps  # the current frame; T when no episode runs

    def reset(self, seed: int) -> np.ndarray:
        placement_key, channel_key = derive_keys(seed, 2)
        placement = make_placement(self.cfg, placement_key)
        frame_seeds = next_seed(philox(channel_key), self.episode_steps + 1)
        self._episode = draw_realization(self.cfg, placement, frame_seeds)
        self.states = state_vector(self._episode)
        self.states.flags.writeable = False
        self._t = 0
        return self.states[0]

    def step(self, actions: np.ndarray) -> StepResult:
        left = self.episode_steps - self._t
        if left == 0:
            raise EnvProtocolError("no episode is running; call reset()")
        a = np.asarray(actions, dtype=float)
        if np.isnan(a).any():
            raise ValueError("an action holds a NaN")
        single = a.ndim == 1
        a = np.clip(a[None] if single else a, -1.0, 1.0)
        t, k = self._t, len(a)
        if not 1 <= k <= left:
            raise EnvProtocolError(f"a block of {k} steps does not fit the {left} steps left")
        ch = self._episode.lane(slice(t, t + k))
        cap = self.fixed_rate_cap
        if cap is None:
            cap = rate_cap_auto(ch, self.cfg)
        dv = decode_action(a, self.cfg, self.ris_mode, cap)
        rates = rate_report(ch, dv, self.cfg)
        min_rate = rates.min_rates
        if self.r_mode == "derived":
            dv = dataclasses.replace(dv, rate_target=min_rate)
        report = problem.evaluate_constraints(ch, dv, self.cfg, rates)
        rew = problem.reward(dv.rate_target, report, self.reward_mode, self.penalty_cost)
        self._t = t + k
        if self._t == self.episode_steps:
            self._episode = None
        result = StepResult(self.states[t + 1 : t + k + 1], rew,
                            np.arange(t + 1, t + k + 1) == self.episode_steps,
                            StepInfo(rates, report, min_rate, report.satisfied_counts,
                                     np.full(k, cap, dtype=float)))
        return result.row(0) if single else result
