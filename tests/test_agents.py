"""Tests for the three learning algorithms and their shared plumbing.

Scalar update rules (advantages, bootstrapped targets, soft mixing, k-step
returns) are pinned by hand arithmetic; the training loops run on a tiny real
environment and must be reproducible to the byte.
"""

import dataclasses
import filecmp
import functools
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scalar_reference as ref

from srnoma.agents import (
    A3cAgent,
    ALGORITHMS,
    PpoAgent,
    ReplayBuffer,
    Td3Agent,
    TrainingTrace,
    advantage_and_target,
    build_agent,
    kstep_returns,
    random_policy_trace,
    soft_update,
    td3_target,
    train,
)
from srnoma.agents import a3c as a3c_module
from srnoma.agents.common import EpisodeStats, ObsNormalizer, critic_gradient, rollout
from srnoma.env import SrEnv, StepInfo, StepResult
from srnoma.harness import evaluate_policy, load_config
from srnoma.network import SystemConfig, next_seed, philox
from srnoma.nn import (LOG_STD_MAX, LOG_STD_MIN, GaussianPolicy, Mlp, NonFiniteGradientError, Sgd,
                       load_checkpoint)
from srnoma.problem import ConstraintReport
from srnoma.rates import RateReport


TINY_SYSTEM = SystemConfig(n_bs_antennas=1, n_ris_elements=1, n_pairs=1)


def tiny_env(steps=5, **over):
    return SrEnv(TINY_SYSTEM, episode_steps=steps, rate_cap=2.0, **over)


def small_hyper(algo, workers=2, **over):
    """Small nets for the tiny env, with only the keys each agent takes."""
    own = {"ppo": {"minibatch": 4}, "td3": {"minibatch": 4},
           "a3c": {"workers": workers, "k_steps": 3}}[algo]
    return {"hidden": (8,), **own, **over}


def _net_keys(*names, layers=2):
    return {f"{name}/{kind}{i}" for name in names for kind in "wb" for i in range(layers)}


def _adam_keys(name, params):
    return {f"{name}/t"} | {f"{name}/{kind}{i}" for kind in "mv" for i in range(params)}


# checkpoint key names of agents with one hidden layer after an Adam run; the
# policy optimizers of PPO and A3C also step log_std, their fifth parameter
CHECKPOINT_KEYS = {
    "ppo": (_net_keys("actor", "critic") | {"log_std"}
            | _adam_keys("opt_actor", 5) | _adam_keys("opt_critic", 4)),
    "td3": (_net_keys("actor", "critic1", "critic2",
                      "actor_target", "critic1_target", "critic2_target")
            | _adam_keys("opt_actor", 4) | _adam_keys("opt_critic1", 4)
            | _adam_keys("opt_critic2", 4) | {"update_count"}),
}
CHECKPOINT_KEYS["a3c"] = CHECKPOINT_KEYS["ppo"]


# ===========================================================================
# shared plumbing
# ===========================================================================


class TestReplayBuffer:
    def test_fill_and_len(self):
        buf = ReplayBuffer(4, state_dim=2, action_dim=1)
        assert len(buf) == 0
        for k in range(3):
            buf.add([k, k], [k], float(k), [k + 1, k + 1])
        assert len(buf) == 3

    def test_circular_overwrite(self):
        buf = ReplayBuffer(2, state_dim=1, action_dim=1)
        for k in range(5):
            buf.add([k], [k], float(k), [k])
        assert len(buf) == 2
        stored = set(buf.rewards.tolist())
        assert stored == {3.0, 4.0}, "oldest transitions must be overwritten"

    def test_sample_shapes(self):
        buf = ReplayBuffer(16, state_dim=3, action_dim=2)
        for k in range(10):
            buf.add(np.full(3, k), np.full(2, k), float(k), np.full(3, k))
        batch = buf.sample(np.random.default_rng(0), 6)
        assert batch["states"].shape == (6, 3)
        assert batch["actions"].shape == (6, 2)
        assert batch["rewards"].shape == (6,)
        assert batch["next_states"].shape == (6, 3)
        assert set(batch) == {"states", "actions", "rewards", "next_states"}  # no terminal flag


class TestObsNormalizerBlocks:
    """A block call adds its rows to the statistics in order and normalises
    each by the statistics its own update left: k one-row calls, bit for
    bit."""

    @pytest.mark.parametrize("k", [0, 1, 3, 26])
    def test_a_block_call_equals_row_by_row_updates(self, k):
        rng = np.random.default_rng(k)
        dim = 37
        scale = rng.uniform(0.01, 100.0, dim)
        warm, x = (rng.normal(3.0, 2.0, (rows, dim)) * scale for rows in (5, k))
        block, rows = ObsNormalizer(dim), ObsNormalizer(dim)
        for norm in (block, rows):
            for state in warm:
                ref.observe_row(norm, state)
        got = block(x)
        want = [ref.observe_row(rows, state) for state in x]
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == np.array(want).reshape(x.shape).tobytes()
        assert block.count == rows.count == 5 + k
        assert block.mean.tobytes() == rows.mean.tobytes()
        assert block.m2.tobytes() == rows.m2.tobytes()

    def test_a_block_call_makes_at_most_one_block_sized_temporary(self):
        k, dim = 26, 4096
        x = np.random.default_rng(1).normal(size=(k, dim))
        norm = ObsNormalizer(dim)
        norm(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = norm(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        # the output, one (k, S) temporary and a few (S,) rows of scratch
        assert x.nbytes < peak < 2.5 * x.nbytes


class TestTrace:
    def test_append_and_len(self):
        trace = TrainingTrace()
        trace.append(0, 1.5, 0.2, 9)
        trace.append(1, 2.5, 0.3, 10)
        assert len(trace) == 2
        assert trace.mean_rewards == [1.5, 2.5]
        assert not trace.aborted

    def test_csv_layout(self, tmp_path):
        trace = TrainingTrace()
        trace.append(0, 1.0 / 3.0, 0.1, 8)
        path = tmp_path / "trace.csv"
        trace.to_csv(path, config_hash="abc123", seed=7)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,mean_reward,min_rate,satisfied_count,config_hash,seed"
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[-2] == "abc123" and fields[-1] == "7"
        assert float(fields[1]) == 1.0 / 3.0

    def test_csv_bytes_are_reproducible(self, tmp_path):
        env = tiny_env()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        random_policy_trace(env, episodes=3, seed=5).to_csv(a, "h", 5)
        random_policy_trace(env, episodes=3, seed=5).to_csv(b, "h", 5)
        assert filecmp.cmp(a, b, shallow=False), "identical runs must dump identical bytes"


def in_order(values):
    """Sum of the values added one by one in order, as EpisodeStats adds."""
    return functools.reduce(operator.add, values, 0.0)


class TestRollout:
    def test_act_sees_each_state_once_and_stats_sum_every_step(self):
        env = tiny_env(steps=4)
        seen = []

        def act(states):
            seen.extend(states)
            return np.full((len(states), env.action_dim), 0.25), np.full(len(states), "tag")

        stats = EpisodeStats()
        blocks = list(rollout(env, 9, act, stats))
        assert len(seen) == len(blocks) == 4
        np.testing.assert_array_equal(seen[0], tiny_env(steps=4).reset(9))
        for k, (states, choices, result) in enumerate(blocks):
            np.testing.assert_array_equal(states, [seen[k]])
            assert choices[1].tolist() == ["tag"]
            if k:
                np.testing.assert_array_equal(states, blocks[k - 1][2].state)
        results = [result for _, _, result in blocks]
        assert np.concatenate([r.done for r in results]).tolist() == [False, False, False, True]
        assert stats.steps == 4
        assert stats.reward_sum == in_order(r.reward[0] for r in results)
        assert stats.min_rate_sum == in_order(r.info.min_rate[0] for r in results)
        assert stats.satisfied_sum == in_order(r.info.satisfied_count[0] for r in results)

    def test_act_runs_only_after_the_consumer_handled_the_step(self):
        env = tiny_env(steps=3)
        log = []

        def act(states):
            log.append("act")
            return (np.zeros((len(states), env.action_dim)),)

        for _ in rollout(env, 2, act, EpisodeStats()):
            log.append("body")
        assert log == ["act", "body"] * 3

    def test_normalized_first_observation_is_zero(self):
        env = tiny_env(steps=2)
        norm = ObsNormalizer(env.state_dim)
        states, _, _ = next(rollout(env, 0, lambda s: (np.zeros((len(s), env.action_dim)),),
                                    EpisodeStats(), norm))
        np.testing.assert_allclose(states, np.zeros((1, env.state_dim)), atol=1e-12)
        assert norm.count == 3, "the episode's T + 1 = 3 states, observed at reset"

    def test_normalized_states_stay_finite(self):
        env = tiny_env(steps=30)
        norm = ObsNormalizer(env.state_dim)
        blocks = list(rollout(env, 4, lambda s: (np.zeros((len(s), env.action_dim)),),
                              EpisodeStats(), norm))
        assert norm.count == 31
        for _, _, result in blocks:
            assert np.all(np.isfinite(result.state))

    @pytest.mark.parametrize("block", [1, 3, 7, 50])
    def test_blocks_act_and_observe_once_per_state_in_frame_order(self, block):
        env = tiny_env(steps=7)
        raw = [env.reset(6)] + [env.step(np.zeros(env.action_dim)).state for _ in range(7)]
        norm = ObsNormalizer(env.state_dim)
        observed, observe_calls, acted, calls = [], [], [], []

        def observe(states):
            observe_calls.append(states.shape)
            observed.extend(states.copy())
            return norm(states)

        def act(states):
            calls.append(len(states))
            numbers = np.arange(len(acted) + 1, len(acted) + len(states) + 1)
            acted.extend(states)
            return 0.1 * numbers[:, None] - 0.4 + np.zeros(env.action_dim), numbers

        stats = EpisodeStats()
        blocks = list(rollout(env, 6, act, stats, observe, block=block))
        np.testing.assert_array_equal(observed, raw)  # s_0 ... s_T, once each
        assert observe_calls == [(8, env.state_dim)]  # one call per episode, at reset
        assert norm.count == 8
        sizes = [min(block, 7 - t) for t in range(0, 7, block)]
        assert calls == sizes  # one act call and one yield per block
        assert [len(states) for states, _, _ in blocks] == sizes
        assert np.concatenate([choice[1] for _, choice, _ in blocks]).tolist() == list(range(1, 8))
        np.testing.assert_array_equal(np.concatenate([states for states, _, _ in blocks]), acted)
        for (states, _, result), size in zip(blocks, sizes):
            assert result.state.shape == states.shape == (size, env.state_dim)
            assert result.reward.shape == result.done.shape == (size,)
        # the next states are the observed s_1 ... s_T, the next block's first included
        next_states = np.concatenate([result.state for _, _, result in blocks])
        np.testing.assert_array_equal(next_states[:-1], acted[1:])
        results = [result for _, _, result in blocks]
        assert np.concatenate([r.done for r in results]).tolist() == [False] * 6 + [True]
        assert stats.steps == 7
        assert stats.reward_sum == in_order(np.concatenate([r.reward for r in results]).tolist())

    def test_stats_add_the_frames_of_a_block_one_by_one(self):
        # a pairwise or compensated block sum rounds differently from adding
        # the frames in order, and the traces are made of these sums
        env = tiny_env(steps=40)
        rng = np.random.default_rng(1)
        act = lambda states: (rng.uniform(-1, 1, (len(states), env.action_dim)),)
        stats = EpisodeStats()
        ((_, _, result),) = rollout(env, 3, act, stats, block=40)
        assert stats.steps == 40
        assert stats.reward_sum == in_order(result.reward.tolist())
        assert stats.min_rate_sum == in_order(result.info.min_rate.tolist())
        assert stats.satisfied_sum == in_order(result.info.satisfied_count.tolist())

    @pytest.mark.parametrize("block, acts", [(3, [3, 3, 1]), (7, [7]), (4, [4, 3])])
    def test_the_next_block_acts_only_after_the_block_was_handled(self, block, acts):
        env = tiny_env(steps=7)
        log = []

        def act(states):
            log.append("act")
            assert len(states) == acts[log.count("act") - 1]
            return (np.zeros((len(states), env.action_dim)),)

        for _ in rollout(env, 2, act, EpisodeStats(), block=block):
            log.append("body")
        assert log == ["act", "body"] * len(acts)


def stacked(results):
    """The block StepResult of single-step results, field by field."""
    def column(items, name):
        return np.array([getattr(item, name) for item in items])

    infos = [result.info for result in results]
    rates, reports = [info.rates for info in infos], [info.constraints for info in infos]
    rate_fields = (field.name for field in dataclasses.fields(RateReport))
    return StepResult(
        column(results, "state"), column(results, "reward"), column(results, "done"),
        StepInfo(RateReport(*(column(rates, name) for name in rate_fields)),
                 ConstraintReport(column(reports, "flags"), column(reports, "slacks")),
                 *(column(infos, name) for name in ("min_rate", "satisfied_count", "rate_cap"))))


def one_frame_at_a_time(monkeypatch):
    """Make env.step play a block one frame per single-action call and build
    the block's StepResult from the frames' results."""
    step = SrEnv.step

    def stepwise(env, actions):
        if np.ndim(actions) == 1:
            return step(env, actions)
        return stacked([step(env, action) for action in actions])

    monkeypatch.setattr(SrEnv, "step", stepwise)


def one_row_per_observe(monkeypatch):
    """Make the observation normaliser add and normalise one state per call,
    as it did before it took blocks of states."""
    def observe(norm, states):
        return np.array([ref.observe_row(norm, state) for state in states]).reshape(states.shape)

    monkeypatch.setattr(ObsNormalizer, "__call__", observe)


def one_state_per_act(monkeypatch):
    """Make every policy act on one state per call, as the agents did before
    they acted on a block of states in one call."""
    def sample(policy, states, rng):
        draws = [ref.policy_sample(policy, state, rng) for state in states]
        return tuple(np.stack(part) for part in zip(*draws))

    monkeypatch.setattr(GaussianPolicy, "sample", sample)
    monkeypatch.setattr(Mlp, "forward_rows", ref.forward_rows)


def _block_env():
    cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=3, n_pairs=2,
                       harvest_threshold_joules=1e-14)
    return SrEnv(cfg, episode_steps=7, normalize_obs=True)


def _training_outputs(algo, workers, optimizer):
    """Trace, state_dict, greedy evaluation and random floor of a short run."""
    env = _block_env()
    hyper = small_hyper(algo, workers, optimizer=optimizer)
    agent, trace = train(algo, env, episodes=3, seed=4, hyper=hyper)
    return (trace, agent.state_dict(), evaluate_policy(agent, env, 2, seed=8),
            random_policy_trace(env, episodes=2, seed=3))


def _assert_same_outputs(got, want):
    for trace_a, trace_b in ((got[0], want[0]), (got[3], want[3])):
        assert trace_a == trace_b
    assert got[1].keys() == want[1].keys()
    for key, value in got[1].items():
        assert np.asarray(value).tobytes() == np.asarray(want[1][key]).tobytes(), key
    assert got[2] == want[2] and got[2]["feasible_steps"] > 0


class TestBlockStepping:
    """PPO, A3C, evaluate_policy and random_policy_trace step blocks of
    frames, and observe and act on each block in one call; one frame per
    env.step call, each observed and acted on one state per call, must give
    the same bytes.  TD3's schedule is pinned by TestTd3EpisodeSchedule."""

    @pytest.mark.parametrize("algo, workers, optimizer", [
        ("ppo", 1, "sgd"), ("ppo", 1, "adam"), ("a3c", 1, "sgd"), ("a3c", 3, "adam"),
    ])
    def test_training_and_evaluation_match_single_frame_steps(self, monkeypatch, algo,
                                                              workers, optimizer):
        blocks = _training_outputs(algo, workers, optimizer)
        one_frame_at_a_time(monkeypatch)
        one_state_per_act(monkeypatch)
        one_row_per_observe(monkeypatch)
        _assert_same_outputs(blocks, _training_outputs(algo, workers, optimizer))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_greedy_block_actions_equal_per_state_actions(self, algo):
        agent = build_agent(algo, 72, 39, {"hidden": (32, 32)}, seed=2)
        states = np.random.default_rng(3).standard_normal((25, 72))
        block = agent.greedy(states)
        assert block.shape == (25, 39)
        for state, row in zip(states, block):
            assert row.tobytes() == agent.greedy(state).tobytes()

    def test_td3_exploring_block_equals_per_state_acts(self):
        block_agent, single_agent = (Td3Agent(72, 39, hidden=(32, 32), seed=5) for _ in range(2))
        states = np.random.default_rng(6).standard_normal((25, 72))
        singles = np.stack([single_agent.act(state) for state in states])
        assert block_agent.act(states).tobytes() == singles.tobytes()
        after = [repr(agent.rng.bit_generator.state) for agent in (block_agent, single_agent)]
        assert after[0] == after[1]


def td3_reference_episode(agent, env, episode_seed):
    """TD3's episode spelled out: the T + 1 states of the episode observed
    one by one, one act call on the first T, then one frame per env.step
    call, each added to the replay buffer, the last one too without a
    terminal flag, and followed by one update."""
    norm = agent.normalizer
    observe = (lambda state: ref.observe_row(norm, state)) if norm else (lambda state: state)
    stats = EpisodeStats()
    env.reset(episode_seed)
    states = [observe(raw) for raw in env.states]
    actions = agent.act(np.stack(states[:-1]))
    for t, action in enumerate(actions):
        result = env.step(action)
        stats.add(stacked([result]))
        agent.buffer.add(states[t], action, result.reward, states[t + 1])
        agent.update()
    assert result.done
    return stats


def td3_reference_episodes(agent, env, env_key):
    """Td3Agent.episodes over td3_reference_episode: one episode per next, on
    the episode seeds of philox(env_key)."""
    seeds = philox(env_key)
    while True:
        yield td3_reference_episode(agent, env, next_seed(seeds)).means()


class TestTd3EpisodeSchedule:
    """TD3 acts once per episode on all its states, the env scores the
    episode in one call, and the agent adds and updates once per frame."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_training_and_evaluation_match_the_reference_loop(self, monkeypatch, optimizer):
        episodes = _training_outputs("td3", 1, optimizer)
        monkeypatch.setattr(Td3Agent, "episodes", td3_reference_episodes)
        one_frame_at_a_time(monkeypatch)
        one_state_per_act(monkeypatch)
        _assert_same_outputs(episodes, _training_outputs("td3", 1, optimizer))

    def test_act_runs_once_per_episode_on_all_its_states(self, monkeypatch):
        calls = []
        act = Td3Agent.act

        def counted(agent, states, explore=True):
            calls.append((np.shape(states), explore))
            return act(agent, states, explore)

        monkeypatch.setattr(Td3Agent, "act", counted)
        env = tiny_env(steps=5)
        train("td3", env, episodes=4, seed=2, hyper=small_hyper("td3"))
        assert calls == [((5, env.state_dim), True)] * 4

    def test_the_last_frame_of_an_episode_bootstraps(self):
        agent, _ = train("td3", tiny_env(steps=5), 1, seed=2,
                         hyper=small_hyper("td3", smoothing_noise=0.0))
        buffer = agent.buffer  # frame 4 is the episode's last
        last = {key: getattr(buffer, key)[4:5]
                for key in ("states", "actions", "rewards", "next_states")}
        sa = np.concatenate([last["next_states"],
                             np.tanh(agent.actor_target.forward(last["next_states"]))], axis=1)
        q = np.minimum(agent.critic1_target.forward(sa), agent.critic2_target.forward(sa))[:, 0]
        assert abs(q[0]) > 0
        assert agent._targets(last).tobytes() == (last["rewards"] + agent.discount * q).tobytes()

    @pytest.mark.parametrize("minibatch, buffer_size", [(4, 100), (7, 100), (3, 6), (16, 100)])
    def test_one_update_per_frame_with_a_full_minibatch(self, minibatch, buffer_size):
        steps, episodes = 5, 3
        agent, _ = train("td3", tiny_env(steps=steps), episodes, seed=2,
                         hyper=small_hyper("td3", minibatch=minibatch, buffer_size=buffer_size))
        held = [min(frame, buffer_size) for frame in range(1, steps * episodes + 1)]
        assert agent.update_count == sum(size >= minibatch for size in held)


# ===========================================================================
# scalar update rules
# ===========================================================================


class TestUpdateRules:
    def test_one_step_advantage(self):
        adv, target = advantage_and_target(
            rewards=np.array([1.0]), values=np.array([1.0]),
            next_values=np.array([0.96]), dones=np.array([0.0]), discount=0.5,
        )
        np.testing.assert_allclose(target, [1.48])
        np.testing.assert_allclose(adv, [0.48])

    def test_terminal_step_drops_bootstrap(self):
        adv, target = advantage_and_target(
            rewards=np.array([1.0]), values=np.array([3.0]),
            next_values=np.array([100.0]), dones=np.array([1.0]), discount=0.9,
        )
        np.testing.assert_allclose(target, [1.0])
        np.testing.assert_allclose(adv, [-2.0])

    # PPO's clipped surrogate min(r A, clip(r) A) is pinned through
    # PpoAgent._minibatch_step: where the min() takes the constant clipped
    # branch the actor gets no gradient, elsewhere it follows r A
    @staticmethod
    def _ppo_actor_after_step(ratio, advantage, clip=0.2):
        states = np.random.default_rng(6).standard_normal((4, 2))
        pres = np.random.default_rng(7).standard_normal((4, 1))
        agent = PpoAgent(
            state_dim=2, action_dim=1, hidden=(4,), actor_lr=0.1, clip=clip, seed=6
        )
        log_probs_old = agent.policy.log_prob(states, pres) - math.log(ratio)
        before = [p.copy() for p in agent.policy.parameters()]
        agent._minibatch_step(
            states, pres, log_probs_old, np.full(4, advantage), np.zeros(4)
        )
        return before, agent.policy.parameters()

    def test_surrogate_clips_optimistic_ratios(self):
        # A > 0, r = 2 > 1 + clip: the clipped branch (1.2 A) is the smaller
        # one, so no actor array moves
        before, after = self._ppo_actor_after_step(ratio=2.0, advantage=1.0)
        for p, q in zip(after, before):
            np.testing.assert_array_equal(p, q)
        # A > 0, r = 0.5 < 1 - clip: the unclipped branch (0.5 A) is smaller
        before, after = self._ppo_actor_after_step(ratio=0.5, advantage=1.0)
        assert all(not np.array_equal(p, q) for p, q in zip(after, before))

    def test_surrogate_is_pessimistic_for_negative_advantage(self):
        # A < 0, r = 0.5: clipped -0.8 < unclipped -0.5, the constant wins
        before, after = self._ppo_actor_after_step(ratio=0.5, advantage=-1.0)
        for p, q in zip(after, before):
            np.testing.assert_array_equal(p, q)
        # A < 0, r = 2: unclipped -2 < clipped -1.2, the gradient flows
        before, after = self._ppo_actor_after_step(ratio=2.0, advantage=-1.0)
        assert all(not np.array_equal(p, q) for p, q in zip(after, before))

    def test_surrogate_identity_region(self):
        # inside [1 - clip, 1 + clip] the step is the unclipped one exactly
        _, clipped = self._ppo_actor_after_step(ratio=1.1, advantage=2.0)
        _, free = self._ppo_actor_after_step(ratio=1.1, advantage=2.0, clip=1e9)
        for p, q in zip(clipped, free):
            np.testing.assert_array_equal(p, q)
        before, _ = self._ppo_actor_after_step(ratio=1.1, advantage=2.0)
        assert all(not np.array_equal(p, q) for p, q in zip(clipped, before))

    @pytest.mark.parametrize("divisor", [1, 2], ids=["a3c-sum", "ppo-td3-mean"])
    def test_critic_gradient_divides_the_summed_regression(self, divisor):
        # critic (1 -> 1) all zeros at x = 1, 2 with targets 1, 3: residuals
        # -1, -3, so d/db is 2 (-1 - 3) = -8 and d/dw is 2 (-1 - 6) = -14,
        # summed (A3C) or divided by the batch size (PPO and TD3)
        critic = Mlp((1, 1), np.random.default_rng(0))
        critic.flat[...] = 0.0
        grad, values = critic_gradient(critic, np.array([[1.0], [2.0]]),
                                       np.array([1.0, 3.0]), divisor)
        np.testing.assert_array_equal(values, [0.0, 0.0])
        np.testing.assert_array_equal(grad, np.array([-14.0, -8.0]) / divisor)

    def test_td3_target_scalar(self):
        assert math.isclose(td3_target(1.0, 0.99, 2.0, 3.0), 2.98)

    def test_td3_target_takes_min(self):
        assert math.isclose(td3_target(0.0, 1.0, 5.0, 2.0), 2.0)

    def test_soft_update_arithmetic(self):
        rng = np.random.default_rng(0)
        target, online = Mlp((1, 1), rng), Mlp((1, 1), rng)
        target.weights[0][...] = 1.0
        online.weights[0][...] = 2.0
        soft_update(target, online, mix=0.0005)
        np.testing.assert_allclose(target.weights[0], [[1.0005]], rtol=1e-12)

    def test_kstep_returns_suffix_sums(self):
        got = kstep_returns(np.array([1.0, 2.0, 3.0]), bootstrap=4.0, discount=1.0)
        np.testing.assert_allclose(got, [10.0, 9.0, 7.0])

    def test_kstep_returns_zero_discount(self):
        got = kstep_returns(np.array([1.0, 2.0]), bootstrap=99.0, discount=0.0)
        np.testing.assert_allclose(got, [1.0, 2.0])

    def test_kstep_returns_single_step(self):
        got = kstep_returns(np.array([1.0]), bootstrap=2.0, discount=0.9)
        np.testing.assert_allclose(got, [2.8])


# ===========================================================================
# PPO agent
# ===========================================================================


class TestPpo:
    def test_ratio_is_one_before_any_update(self):
        agent = PpoAgent(state_dim=2, action_dim=1, hidden=(4,), seed=0)
        states, pres, logps = [], [], []
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = rng.standard_normal(2)
            _, pre, logp = agent.act(s)
            states.append(s)
            pres.append(pre)
            logps.append(logp)
        fresh = agent.policy.log_prob(np.stack(states), np.stack(pres))
        np.testing.assert_allclose(
            np.exp(fresh - np.asarray(logps)), np.ones(5), rtol=1e-12,
            err_msg="act must report the policy's own log-density",
        )

    def test_critic_regression_arithmetic(self):
        # critic (1 -> 1) all zeros, one sample at s = 0 with target 1:
        # d/db of (v - 1)^2 is -2, so SGD with lr 1/4 moves the bias to 0.5
        agent = PpoAgent(
            state_dim=1, action_dim=1, hidden=(), critic_lr=0.25,
            minibatch=1, update_epochs=1, seed=0,
        )
        for arr in agent.critic.parameters():
            arr[...] = 0.0
        states = np.zeros((1, 1))
        pres = np.zeros((1, 1))
        logp_old = agent.policy.log_prob(states, pres)
        agent.update(states, pres, logp_old, np.zeros(1), targets=np.ones(1))
        assert math.isclose(agent.critic.biases[0][0], 0.5, rel_tol=1e-12)

    def test_nonfinite_ratios_are_dropped_and_counted(self):
        agent = PpoAgent(
            state_dim=1, action_dim=1, hidden=(), minibatch=2, update_epochs=1, seed=2
        )
        states = np.zeros((2, 1))
        pres = np.zeros((2, 1))
        logp_old = agent.policy.log_prob(states, pres)
        logp_old[0] = -1e300  # forces an overflowing ratio
        agent.update(states, pres, logp_old, np.zeros(2), np.zeros(2))
        assert agent.dropped_samples == 1
        assert np.all(np.isfinite(agent.policy.log_std))

    def test_positive_advantage_moves_policy_toward_sample(self):
        agent = PpoAgent(
            state_dim=1, action_dim=1, hidden=(), actor_lr=0.01,
            minibatch=4, update_epochs=1, seed=3,
        )
        states = np.zeros((4, 1))
        pres = np.full((4, 1), 0.7)
        logp_old = agent.policy.log_prob(states, pres)
        before = agent.policy.log_prob(states, pres).sum()
        agent.update(states, pres, logp_old, np.ones(4), np.zeros(4))
        after = agent.policy.log_prob(states, pres).sum()
        assert after > before, "rewarded samples must become more likely"

    def test_state_dict_round_trip(self):
        agent = PpoAgent(state_dim=2, action_dim=1, hidden=(4,), seed=4)
        states = np.random.default_rng(3).standard_normal((6, 2))
        pres = np.random.default_rng(4).standard_normal((6, 1))
        agent.update(states, pres, agent.policy.log_prob(states, pres),
                     np.ones(6), np.ones(6))
        clone = PpoAgent(state_dim=2, action_dim=1, hidden=(4,), seed=99)
        clone.load_state_dict(agent.state_dict())
        probe = np.random.default_rng(5).standard_normal((3, 2))
        np.testing.assert_array_equal(
            clone.policy.net.forward(probe), agent.policy.net.forward(probe)
        )
        np.testing.assert_array_equal(
            clone.critic.forward(probe), agent.critic.forward(probe)
        )


# ===========================================================================
# TD3 agent
# ===========================================================================


class TestTd3:
    def make_agent(self, **over):
        base = dict(
            state_dim=2, action_dim=1, hidden=(8,), minibatch=4, buffer_size=32, seed=0
        )
        base.update(over)
        return Td3Agent(**base)

    def fill(self, agent, n):
        rng = np.random.default_rng(10)
        for _ in range(n):
            s = rng.standard_normal(2)
            agent.buffer.add(s, rng.uniform(-1, 1, 1), rng.normal(), rng.standard_normal(2))

    def test_greedy_action_is_deterministic_and_bounded(self):
        agent = self.make_agent()
        s = np.array([0.3, -0.8])
        a1 = agent.act(s, explore=False)
        a2 = agent.act(s, explore=False)
        np.testing.assert_array_equal(a1, a2)
        assert np.all(np.abs(a1) <= 1.0)

    def test_exploration_noise_perturbs(self):
        agent = self.make_agent()
        s = np.zeros(2)
        assert not np.array_equal(agent.act(s, explore=True), agent.act(s, explore=False))
        assert np.all(np.abs(agent.act(s, explore=True)) <= 1.0)

    def test_update_waits_for_minibatch(self):
        agent = self.make_agent(minibatch=4)
        self.fill(agent, 3)
        assert agent.update() is False
        assert agent.update_count == 0
        self.fill(agent, 1)
        assert agent.update() is True
        assert agent.update_count == 1

    def test_critic_gradients_vanish_at_the_target(self):
        agent = self.make_agent()
        sa = np.random.default_rng(11).standard_normal((4, 3))
        q = agent.critic1.forward(sa)[:, 0]
        grad, values = critic_gradient(agent.critic1, sa, q, len(q))
        np.testing.assert_array_equal(values, q)
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-15)

    def test_actor_updates_are_delayed(self):
        agent = self.make_agent(policy_delay=2)
        self.fill(agent, 8)
        actor_before = [p.copy() for p in agent.actor.parameters()]
        target_before = [p.copy() for p in agent.actor_target.parameters()]
        agent.update()  # count 1: critics only
        for p, q in zip(agent.actor.parameters(), actor_before):
            np.testing.assert_array_equal(p, q)
        for p, q in zip(agent.actor_target.parameters(), target_before):
            np.testing.assert_array_equal(p, q)
        agent.update()  # count 2: actor and targets move
        moved = any(
            not np.array_equal(p, q)
            for p, q in zip(agent.actor.parameters(), actor_before)
        )
        assert moved, "actor must step on the delayed update"
        target_moved = any(
            not np.array_equal(p, q)
            for p, q in zip(agent.actor_target.parameters(), target_before)
        )
        assert target_moved, "targets must mix on the delayed update"

    def test_critics_move_every_update(self):
        agent = self.make_agent()
        self.fill(agent, 8)
        before = [p.copy() for p in agent.critic1.parameters()]
        agent.update()
        assert any(
            not np.array_equal(p, q) for p, q in zip(agent.critic1.parameters(), before)
        )

    def test_state_dict_round_trip(self):
        agent = self.make_agent()
        self.fill(agent, 8)
        agent.update()
        agent.update()
        clone = self.make_agent(seed=5)
        clone.load_state_dict(agent.state_dict())
        assert clone.update_count == agent.update_count
        probe = np.random.default_rng(12).standard_normal(2)
        np.testing.assert_array_equal(
            clone.act(probe, explore=False), agent.act(probe, explore=False)
        )


class TestTd3CriticLanes:
    """The twin critics are the lanes of one stacked net with one optimizer;
    checkpoints keep a key set and order per critic."""

    def trained(self, optimizer, seed=3):
        env = tiny_env(steps=5)
        agent, _ = train("td3", env, episodes=3, seed=seed,
                         hyper=small_hyper("td3", optimizer=optimizer))
        return agent, env

    def test_critics_share_memory_with_the_stacked_buffers(self):
        agent, _ = self.trained("adam")
        targets = (agent.critic1_target, agent.critic2_target)
        for stacked, lanes in ((agent.critics, (agent.critic1, agent.critic2)),
                               (agent.critics_target, targets)):
            assert stacked.lanes == (2,)
            size = stacked.flat.size // 2
            for lane, critic in enumerate(lanes):
                assert np.shares_memory(critic.flat, stacked.flat)
                np.testing.assert_array_equal(critic.flat,
                                              stacked.flat[lane * size : (lane + 1) * size])
                for p in critic.weights + critic.biases:
                    assert np.shares_memory(p, stacked.flat)
        assert not np.shares_memory(agent.critics.flat, agent.critics_target.flat)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_checkpoint_keys_are_unchanged(self, optimizer):
        agent, _ = self.trained(optimizer)
        state = agent.state_dict()
        names = ("actor", "critic1", "critic2", "actor_target", "critic1_target", "critic2_target")
        nets = [f"{name}/{kind}{i}" for name in names for i in range(2) for kind in "wb"]
        opts = [f"opt_{name}/{key}" for name in names[:3]
                for key in ["t"] + [f"{k}{i}" for i in range(4) for k in "mv"]]
        want = nets + (opts if optimizer == "adam" else []) + ["update_count"]
        assert list(state) == want  # the parent layout, key for key and in order
        if optimizer == "adam":
            assert set(state) == CHECKPOINT_KEYS["td3"]
            for name in ("critic1", "critic2"):
                for i, p in enumerate(getattr(agent, name).parameters()):
                    assert state[f"opt_{name}/m{i}"].shape == p.shape
            assert int(state["opt_critic1/t"]) == int(state["opt_critic2/t"]) > 0

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_loaded_state_gives_a_bit_identical_next_update(self, optimizer):
        agent, env = self.trained(optimizer)
        clone = build_agent("td3", env.state_dim, env.action_dim,
                            small_hyper("td3", optimizer=optimizer), seed=99)
        clone.load_state_dict(agent.state_dict())
        clone.buffer = agent.buffer  # sampling leaves it as it is
        clone.rng.bit_generator.state = agent.rng.bit_generator.state
        for _ in range(2):  # a critic-only update, then one that moves the actor and targets
            assert agent.update() and clone.update()
            want, got = agent.state_dict(), clone.state_dict()
            assert list(got) == list(want)
            for key, value in want.items():
                assert got[key].dtype == value.dtype, key
                assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key


# ===========================================================================
# A3C agent
# ===========================================================================


class TestA3c:
    def test_zero_advantage_leaves_only_entropy_pressure(self):
        agent = A3cAgent(state_dim=1, action_dim=1, hidden=(), entropy_coef=0.01, seed=0)
        local_policy = agent.policy.copy()
        local_critic = agent.critic.copy()
        for arr in local_critic.parameters():
            arr[...] = 0.0
        local_critic.biases[-1][...] = 2.0  # V(s) = 2 everywhere
        states = np.zeros((3, 1))
        pres = np.zeros((3, 1))
        returns = np.full(3, 2.0)  # advantages are exactly zero
        actor_grad, critic_grads = agent.segment_gradients(
            local_policy, local_critic, states, pres, returns
        )
        assert actor_grad.shape == local_policy.flat.shape
        *actor_grads, log_std_grad = ref.split(actor_grad, local_policy.shapes)
        for g in actor_grads:
            np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-15)
        for g in critic_grads:
            np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-15)
        np.testing.assert_allclose(log_std_grad, [-0.03], rtol=1e-12)

    def test_apply_gradients_steps_globals(self):
        agent = A3cAgent(state_dim=1, action_dim=1, hidden=(), actor_lr=0.1,
                         critic_lr=0.1, seed=1)
        log_std_before = agent.policy.log_std.copy()
        log_std_only = np.zeros_like(agent.policy.flat)
        log_std_only[-1] = 1.0  # the policy buffer ends with log_std
        zero_critic = np.zeros_like(agent.critic.flat)
        agent.apply_gradients(log_std_only, zero_critic)
        np.testing.assert_allclose(agent.policy.log_std, log_std_before - 0.1)

    def test_multi_worker_round_returns_one_stat_per_worker(self):
        env = tiny_env(steps=4)
        agent = A3cAgent(env.state_dim, env.action_dim, hidden=(4,), workers=3,
                         k_steps=2, seed=3)
        observers = [ObsNormalizer(env.state_dim) for _ in range(3)]
        rngs = [np.random.Generator(np.random.Philox(k)) for k in range(3)]
        results = [agent.worker_episode(env, seed, rng, observe)
                   for seed, rng, observe in zip([1, 2, 3], rngs, observers)]
        assert len(results) == 3
        assert all(r.steps == 4 for r in results)
        # each worker normalises only its own reset state and four steps
        assert [o.count for o in observers] == [5, 5, 5]
        assert not np.array_equal(observers[0].mean, observers[1].mean)

    def test_segments_cut_at_k_steps_and_bootstrap_until_the_end(self, monkeypatch):
        # a 7-step episode with k = 3 is stepped in blocks of 3, 3 and 1 and
        # gives batches of the same sizes; the first two bootstrap from the
        # local critic at the state after the block, the last from 0
        env = tiny_env(steps=7)
        agent = A3cAgent(env.state_dim, env.action_dim, hidden=(4,), workers=1, k_steps=3,
                         seed=5)
        real_step, real_gradients = env.step, agent.segment_gradients
        real_returns = a3c_module.kstep_returns
        blocks, next_states, sizes, critic_values, bootstraps = [], [], [], [], []

        def step(actions):
            result = real_step(actions)
            blocks.append(len(actions))
            next_states.append(result.state[-1])
            return result

        def segment_gradients(local_policy, local_critic, states, pres, returns):
            sizes.append(len(states))
            critic_values.append(float(local_critic.forward(next_states[-1])[0]))
            return real_gradients(local_policy, local_critic, states, pres, returns)

        def kstep_returns(rewards, bootstrap, discount):
            bootstraps.append(bootstrap)
            return real_returns(rewards, bootstrap, discount)

        monkeypatch.setattr(env, "step", step)
        monkeypatch.setattr(agent, "segment_gradients", segment_gradients)
        monkeypatch.setattr(a3c_module, "kstep_returns", kstep_returns)
        stats = agent.worker_episode(env, 4, np.random.Generator(np.random.Philox(0)))
        assert stats.steps == 7
        assert blocks == sizes == [3, 3, 1]
        assert bootstraps == [*critic_values[:2], 0.0]
        assert critic_values[0] != critic_values[1], "each segment bootstraps afresh"

    def test_state_dict_round_trip(self):
        agent = A3cAgent(state_dim=2, action_dim=1, hidden=(4,), seed=4)
        clone = A3cAgent(state_dim=2, action_dim=1, hidden=(4,), seed=50)
        clone.load_state_dict(agent.state_dict())
        probe = np.random.default_rng(0).standard_normal((3, 2))
        np.testing.assert_array_equal(
            clone.policy.net.forward(probe), agent.policy.net.forward(probe)
        )


# ===========================================================================
# unified training entry
# ===========================================================================


class TestTrain:
    def test_build_agent_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            build_agent("dqn", 4, 2, None, seed=0)

    def test_build_agent_filters_foreign_hypers(self):
        # reference-table keys a PPO agent does not take are skipped
        agent = build_agent(
            "ppo", 4, 2, {"clip": 0.1, "target_update": 0.5, "episodes": 9, "hidden": [8, 8]},
            seed=0,
        )
        assert agent.clip == 0.1
        assert agent.policy.net.sizes == (4, 8, 8, 2)

    @pytest.mark.parametrize("algo, hyper, field", [
        ("ppo", {"clipp": 0.1}, "clipp"),
        ("ppo", {"buffer_size": 999}, "buffer_size"),
        ("td3", {"workers": 2}, "workers"),
        ("a3c", {"update_epochs": 5}, "update_epochs"),
        # a table key of another agent: TD3's config section does not list it
        ("td3", {"entropy_coef": 0.1}, "entropy_coef"),
        # build_agent's own argument, no hyperparameter
        ("ppo", {"seed": 3}, "seed"),
    ], ids=["ppo-clipp", "ppo-buffer_size", "td3-workers", "a3c-update_epochs",
            "td3-entropy_coef", "ppo-seed"])
    def test_build_agent_rejects_unknown_hypers(self, algo, hyper, field):
        with pytest.raises(ValueError, match=field):
            build_agent(algo, 4, 2, hyper, seed=0)

    @pytest.mark.parametrize("name", ["default", "scalar", "smoke"])
    def test_shipped_configs_build_every_agent(self, name):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml")
        for algo in ALGORITHMS:
            build_agent(algo, 4, 2, config["agents"][algo], seed=0)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_short_run_completes(self, algo):
        env = tiny_env(steps=5)
        agent, trace = train(algo, env, episodes=2, seed=0, hyper=small_hyper(algo))
        assert len(trace) == 2
        assert not trace.aborted
        assert all(np.isfinite(r) for r in trace.mean_rewards)

    @pytest.mark.parametrize("algo, workers", [
        *(pytest.param(algo, 1, id=algo) for algo in ALGORITHMS),
        pytest.param("a3c", 3, id="a3c-workers3"),
    ])
    def test_an_abort_at_the_first_step_has_observed_the_whole_episode(self, monkeypatch, algo,
                                                                       workers):
        # the normaliser takes an episode's T + 1 states at its reset, so a
        # run that aborts at its first optimizer step (for A3C, after the
        # first 3-step segment) has counted all of them
        calls = []

        def non_finite(optimizer, param, grad):
            calls.append(optimizer)
            raise NonFiniteGradientError("non-finite gradient")

        monkeypatch.setattr(Sgd, "step", non_finite)
        over = {"minibatch": 2} if algo == "td3" else {}
        hyper = small_hyper(algo, workers, optimizer="sgd", **over)
        agent, trace = train(algo, tiny_env(steps=7, normalize_obs=True), 2, seed=3, hyper=hyper)
        assert trace.aborted and len(trace) == 0 and len(calls) == 1
        assert agent.normalizer.count == 7 + 1

    def test_zero_episodes_gives_empty_trace(self):
        env = tiny_env(steps=3)
        agent, trace = train("ppo", env, episodes=0, seed=0, hyper={"hidden": (4,)})
        assert len(trace) == 0 and not trace.aborted

    @pytest.mark.parametrize("field", ["episodes", "checkpoint_every"])
    def test_negative_loop_counts_are_rejected(self, tmp_path, field):
        counts = {"episodes": 1, "checkpoint_every": 0, field: -1}
        with pytest.raises(ValueError, match=field):
            train("ppo", tiny_env(steps=3), seed=0, hyper={"hidden": (4,)},
                  checkpoint_dir=tmp_path, **counts)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoints_are_written(self, tmp_path):
        env = tiny_env(steps=3)
        train(
            "td3", env, episodes=2, seed=0,
            hyper={"hidden": (4,), "minibatch": 2},
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        assert (tmp_path / "ckpt_td3_final.npz").exists()
        assert (tmp_path / "ckpt_td3_ep000001.npz").exists()
        assert (tmp_path / "ckpt_td3_ep000002.npz").exists()

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_a_file_as_checkpoint_dir_fails_before_the_first_step(self, monkeypatch, tmp_path,
                                                                  algo):
        steps, step = [], SrEnv.step
        monkeypatch.setattr(SrEnv, "step", lambda env, actions: steps.append(1) or step(env, actions))
        path = tmp_path / "taken"
        path.write_text("kept\n")
        with pytest.raises(FileExistsError):
            train(algo, tiny_env(steps=3), 2, seed=0, hyper=small_hyper(algo), checkpoint_dir=path)
        assert steps == [] and path.read_text() == "kept\n"

    def test_a_bad_hyperparameter_makes_no_checkpoint_dir(self, tmp_path):
        with pytest.raises(ValueError, match="clipp"):
            train("ppo", tiny_env(steps=3), 1, seed=0, hyper={"clipp": 0.1},
                  checkpoint_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_checkpoint_meta_records_the_blas_thread_variables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        train("ppo", tiny_env(steps=3), 1, seed=0, hyper={"hidden": (4,)},
              checkpoint_dir=tmp_path, checkpoint_every=1)
        for name in ("ckpt_ppo_ep000001.npz", "ckpt_ppo_final.npz"):
            _, meta = load_checkpoint(tmp_path / name)
            assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3",
                                            "MKL_NUM_THREADS": None}

    @pytest.mark.parametrize("algo, workers", [
        *(pytest.param(algo, 1, id=algo) for algo in ALGORITHMS),
        pytest.param("a3c", 3, id="a3c-workers3"),
    ])
    def test_repeat_runs_are_bit_identical(self, algo, workers, tmp_path):
        hyper = small_hyper(algo, workers)
        paths = []
        for tag in ("first", "second"):
            env = tiny_env(steps=5)
            _, trace = train(algo, env, episodes=3, seed=11, hyper=hyper)
            path = tmp_path / f"{algo}_{tag}.csv"
            trace.to_csv(path, config_hash="fixed", seed=11)
            paths.append(path)
        assert filecmp.cmp(*paths, shallow=False), (
            f"{algo} training must be reproducible to the byte"
        )

    @pytest.mark.parametrize("algo, workers", [
        *(pytest.param(algo, 1, id=algo) for algo in ALGORITHMS),
        pytest.param("a3c", 3, id="a3c-workers3"),
    ])
    def test_loaded_checkpoint_evaluates_like_the_trained_agent(self, algo, workers, tmp_path):
        # the checkpoint holds the observation statistics, so a fresh agent
        # loaded from it is fed the inputs the trained agent is fed
        env = tiny_env(steps=5, normalize_obs=True)
        hyper = small_hyper(algo, workers)
        agent, _ = train(algo, env, episodes=3, seed=2, hyper=hyper, checkpoint_dir=tmp_path)
        arrays, _ = load_checkpoint(tmp_path / f"ckpt_{algo}_final.npz")
        # three episodes of a reset state and five steps; worker 0's only
        assert int(arrays["obs/count"]) == 18
        np.testing.assert_array_equal(arrays["obs/mean"], agent.normalizer.mean)
        np.testing.assert_array_equal(arrays["obs/m2"], agent.normalizer.m2)
        clone = build_agent(algo, env.state_dim, env.action_dim, hyper, seed=99)
        clone.load_state_dict(arrays)
        want = evaluate_policy(agent, env, episodes=2, seed=5)
        np.testing.assert_equal(evaluate_policy(clone, env, episodes=2, seed=5), want)
        np.testing.assert_equal(evaluate_policy(agent, env, episodes=2, seed=5), want)
        assert agent.normalizer.count == 18, "evaluation leaves the statistics frozen"

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_adam_checkpoint_keys_and_round_trip(self, algo, tmp_path):
        env = tiny_env(steps=5)
        hyper = small_hyper(algo, optimizer="adam")
        agent, _ = train(algo, env, episodes=2, seed=3, hyper=hyper,
                         checkpoint_dir=tmp_path)
        arrays, meta = load_checkpoint(tmp_path / f"ckpt_{algo}_final.npz")
        assert meta["algo"] == algo and meta["episode"] == 2
        assert set(arrays) == CHECKPOINT_KEYS[algo]
        assert int(arrays["opt_actor/t"]) > 0 and np.any(arrays["opt_actor/m0"] != 0.0)
        if algo == "td3":
            assert int(arrays["update_count"]) > 0
        written = agent.state_dict()
        for key, value in arrays.items():
            np.testing.assert_array_equal(value, written[key], err_msg=key)

        clone = build_agent(algo, env.state_dim, env.action_dim, hyper, seed=99)
        clone.load_state_dict(arrays)
        restored = clone.state_dict()
        assert set(restored) == set(arrays)
        for key, value in arrays.items():
            np.testing.assert_array_equal(restored[key], value, err_msg=key)
        probe = np.random.default_rng(8).standard_normal((5, env.state_dim))
        np.testing.assert_array_equal(clone.greedy(probe), agent.greedy(probe))
        if algo == "ppo":  # collection samples the loaded nets
            clone.rng.bit_generator.state = agent.rng.bit_generator.state
            for loaded, saved in zip(clone.act(probe[0]), agent.act(probe[0])):
                np.testing.assert_array_equal(loaded, saved)


# ===========================================================================
# flat parameter buffers and hyperparameter checks
# ===========================================================================


def _all_nets(agent):
    """Every net an agent holds, the policies' nets included."""
    held = vars(agent).values()
    return ([v for v in held if isinstance(v, Mlp)]
            + [v.net for v in held if isinstance(v, GaussianPolicy)])


def _assert_views_share_buffers(agent):
    for net in _all_nets(agent):
        for p in net.weights + net.biases + net.parameters():
            assert np.shares_memory(p, net.flat)


class TestFlatBuffers:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_views_stay_views(self, algo):
        # after training (every update kind), a state-dict load and copy()
        env = tiny_env(steps=5)
        hyper = small_hyper(algo, optimizer="adam")
        agent, _ = train(algo, env, episodes=2, seed=3, hyper=hyper)
        # TD3: actor, its target, the stacked critics and their target, and
        # the four critic lanes
        assert len(_all_nets(agent)) == {"ppo": 2, "td3": 8, "a3c": 2}[algo]
        _assert_views_share_buffers(agent)
        clone = build_agent(algo, env.state_dim, env.action_dim, hyper, seed=99)
        clone.load_state_dict(agent.state_dict())
        _assert_views_share_buffers(clone)
        for net in _all_nets(clone):
            dup = net.copy()
            np.testing.assert_array_equal(dup.flat, net.flat)
            assert all(np.shares_memory(p, dup.flat) for p in dup.weights + dup.biases)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_adam_moments_are_saved_per_parameter(self, algo):
        # the per-parameter shapes older checkpoints were written with
        env = tiny_env(steps=5)
        agent, _ = train(algo, env, episodes=2, seed=3,
                         hyper=small_hyper(algo, workers=3, optimizer="adam"))
        nets, optimizers, _ = agent._checkpoint_parts()
        arrays = agent.state_dict()
        for name in optimizers:
            owner = nets[name[len("opt_"):]]
            with_log_std = algo != "td3" and name == "opt_actor"
            params = owner.parameters() + ([agent.policy.log_std] if with_log_std else [])
            for i, p in enumerate(params):
                assert arrays[f"{name}/m{i}"].shape == p.shape
                assert arrays[f"{name}/v{i}"].shape == p.shape
            assert f"{name}/m{len(params)}" not in arrays


class TestHyperparameterChecks:
    @pytest.mark.parametrize("over, field", [
        ({"policy_delay": 0}, "policy_delay"),
        ({"minibatch": 0}, "minibatch"),
        ({"buffer_size": 5, "minibatch": 16}, "buffer_size"),
        ({"actor_lr": -1.0}, "actor_lr"),
        ({"actor_lr": 0.0}, "actor_lr"),
        ({"critic_lr": float("nan")}, "critic_lr"),
        ({"critic_lr": float("inf")}, "critic_lr"),
    ])
    def test_td3_rejects(self, over, field):
        with pytest.raises(ValueError, match=field):
            Td3Agent(state_dim=2, action_dim=1, hidden=(4,), **over)

    @pytest.mark.parametrize("cls", [PpoAgent, A3cAgent])
    @pytest.mark.parametrize("over, field", [
        ({"actor_lr": -1.0}, "actor_lr"),
        ({"critic_lr": float("nan")}, "critic_lr"),
    ])
    def test_policy_agents_reject_bad_learning_rates(self, cls, over, field):
        with pytest.raises(ValueError, match=field):
            cls(state_dim=2, action_dim=1, hidden=(4,), **over)

    # every count an agent, the env or train() takes: id -> (field, build with it set to n)
    COUNTS = {
        "ppo-minibatch": ("minibatch", lambda n: PpoAgent(2, 1, hidden=(4,), minibatch=n)),
        "ppo-update_epochs": ("update_epochs",
                              lambda n: PpoAgent(2, 1, hidden=(4,), update_epochs=n)),
        "a3c-workers": ("workers", lambda n: A3cAgent(2, 1, hidden=(4,), workers=n)),
        "a3c-k_steps": ("k_steps", lambda n: A3cAgent(2, 1, hidden=(4,), k_steps=n)),
        "env-episode_steps": ("episode_steps", lambda n: tiny_env(steps=n)),
        "td3-policy_delay": ("policy_delay", lambda n: Td3Agent(2, 1, hidden=(4,), policy_delay=n)),
        "td3-minibatch": ("minibatch", lambda n: Td3Agent(2, 1, hidden=(4,), minibatch=n)),
        "td3-buffer_size": ("buffer_size",
                            lambda n: Td3Agent(2, 1, hidden=(4,), minibatch=1, buffer_size=n)),
        "ppo-hidden": ("hidden", lambda n: PpoAgent(2, 1, hidden=(4, n))),
        "a3c-hidden": ("hidden", lambda n: A3cAgent(2, 1, hidden=(n,))),
        "td3-hidden": ("hidden", lambda n: Td3Agent(2, 1, hidden=(n,))),
        "train-episodes": ("episodes", lambda n: train("ppo", tiny_env(steps=2), n, 0,
                                                       hyper={"hidden": (4,)})),
        "train-checkpoint_every": ("checkpoint_every", lambda n: train(
            "ppo", tiny_env(steps=2), 1, 0, hyper={"hidden": (4,)}, checkpoint_every=n)),
        "random-episodes": ("episodes", lambda n: random_policy_trace(tiny_env(steps=2), n, 0)),
    }
    BELOW_ONE = ["ppo-minibatch", "ppo-update_epochs", "a3c-workers", "a3c-k_steps",
                 "env-episode_steps"]

    # a count is an integer: a float, inf or a bool is rejected like a count below one
    @pytest.mark.parametrize("case, value", [
        *(pytest.param(case, 0, id=case) for case in BELOW_ONE),
        pytest.param("random-episodes", -1, id="random-episodes--1"),
        *(pytest.param(case, value, id=f"{case}-{value}")
          for case in COUNTS for value in (2.5, math.inf, True))])
    def test_loop_counts_below_one_are_rejected(self, case, value):
        field, build = self.COUNTS[case]
        with pytest.raises(ValueError, match=field):
            build(value)

    @pytest.mark.parametrize("case", list(COUNTS))
    def test_loop_counts_take_numpy_integers(self, case):
        self.COUNTS[case][1](np.int64(4))

    @pytest.mark.parametrize("build, field", [
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), discount=1.5), "discount"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), discount=-0.1), "discount"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), discount=float("nan")),
         "discount"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), clip=-0.2), "clip"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), actor_lr=True), "actor_lr"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), discount=True), "discount"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), clip=0.0), "clip"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), target_update=0.0),
         "target_update"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), target_update=1.5),
         "target_update"),
        (lambda: SrEnv(TINY_SYSTEM, rate_cap=-1.0), "rate_cap"),
        (lambda: SrEnv(TINY_SYSTEM, rate_cap=float("inf")), "rate_cap"),
        (lambda: SrEnv(TINY_SYSTEM, rate_cap=float("nan")), "rate_cap"),
        (lambda: SrEnv(TINY_SYSTEM, reward_mode="bogus"), "reward_mode"),
        (lambda: SrEnv(TINY_SYSTEM, penalty_cost=-1.0), "penalty_cost"),
        (lambda: SrEnv(TINY_SYSTEM, penalty_cost=float("inf")), "penalty_cost"),
        (lambda: SrEnv(TINY_SYSTEM, penalty_cost=float("nan")), "penalty_cost"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), smoothing_noise=-0.1),
         "smoothing_noise"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), noise_clip=-0.5),
         "noise_clip"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), explore_noise=float("nan")),
         "explore_noise"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), init_log_std=LOG_STD_MAX + 1),
         "init_log_std"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), init_log_std=LOG_STD_MIN - 1),
         "init_log_std"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), init_log_std=float("nan")),
         "init_log_std"),
        (lambda: SrEnv(TINY_SYSTEM, ris_mode="bogus"), "ris_mode"),
        (lambda: SrEnv(TINY_SYSTEM, r_mode="bogus"), "r_mode"),
        (lambda: SrEnv(TINY_SYSTEM, normalize_obs="abc"), "normalize_obs"),
        (lambda: SrEnv(TINY_SYSTEM, normalize_obs=1), "normalize_obs"),
        (lambda: SrEnv(TINY_SYSTEM, ris_mode=True), "ris_mode"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4, 0)), "hidden"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(0,)), "hidden"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(0,)), "hidden"),
        (lambda: build_agent("ppo", 2, 1, {"hidden": 5}, seed=0), "hidden"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), entropy_coef=-0.01),
         "entropy_coef"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), entropy_coef=float("nan")),
         "entropy_coef"),
    ], ids=["ppo-discount", "a3c-discount", "td3-discount-nan", "ppo-clip", "ppo-actor_lr-bool",
            "td3-discount-bool", "ppo-clip-zero",
            "td3-target_update-zero", "td3-target_update", "env-rate_cap", "env-rate_cap-inf",
            "env-rate_cap-nan", "env-reward_mode", "env-penalty_cost", "env-penalty_cost-inf",
            "env-penalty_cost-nan", "td3-smoothing_noise", "td3-noise_clip", "td3-explore_noise-nan",
            "ppo-init_log_std", "a3c-init_log_std", "ppo-init_log_std-nan", "env-ris_mode",
            "env-r_mode", "env-normalize_obs-text", "env-normalize_obs-one", "env-ris_mode-bool",
            "ppo-hidden", "a3c-hidden", "td3-hidden", "ppo-hidden-scalar",
            "a3c-entropy_coef", "a3c-entropy_coef-nan"])
    def test_out_of_range_settings_are_rejected(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_interval_ends_are_accepted(self):
        for discount in (0.0, 1.0):
            PpoAgent(state_dim=2, action_dim=1, hidden=(4,), discount=discount)
            A3cAgent(state_dim=2, action_dim=1, hidden=(4,), discount=discount)
            Td3Agent(state_dim=2, action_dim=1, hidden=(4,), discount=discount)
        Td3Agent(state_dim=2, action_dim=1, hidden=(4,), target_update=1.0)
        Td3Agent(state_dim=2, action_dim=1, hidden=(4,), smoothing_noise=0.0, noise_clip=0.0,
                 explore_noise=0.0)
        for init_log_std in (LOG_STD_MIN, LOG_STD_MAX):
            PpoAgent(state_dim=2, action_dim=1, hidden=(4,), init_log_std=init_log_std)
            A3cAgent(state_dim=2, action_dim=1, hidden=(4,), init_log_std=init_log_std)
        assert SrEnv(TINY_SYSTEM, rate_cap=0.0).fixed_rate_cap == 0.0
        assert SrEnv(TINY_SYSTEM).fixed_rate_cap is None
        assert SrEnv(TINY_SYSTEM, reward_mode="penalty", penalty_cost=0.0).penalty_cost == 0.0

    def test_smallest_valid_td3_settings_are_accepted(self):
        agent = Td3Agent(state_dim=2, action_dim=1, hidden=(4,), policy_delay=1,
                         minibatch=1, buffer_size=1, actor_lr=1e-12)
        agent.buffer.add(np.zeros(2), np.zeros(1), 1.0, np.zeros(2))
        assert agent.update() is True


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
