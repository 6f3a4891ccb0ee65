"""Tests for the three learning algorithms and their shared plumbing.

Scalar update rules (advantages, bootstrapped targets, soft mixing, k-step
returns) are pinned by hand arithmetic; the training loops run on a tiny real
environment and must be reproducible to the byte.
"""

import filecmp
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

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
from srnoma import harness
from srnoma.agents import a3c as a3c_module
from srnoma.agents import common as common_module
from srnoma.agents.common import EpisodeStats, ObsNormalizer, critic_gradient, rollout
from srnoma.env import SrEnv
from srnoma.harness import _greedy_action, evaluate_policy, load_config
from srnoma.network import SystemConfig
from srnoma.nn import LOG_STD_MAX, LOG_STD_MIN, GaussianPolicy, Mlp, load_checkpoint

# the module, which the package's ``train`` function shadows as an attribute
train_module = importlib.import_module("srnoma.agents.train")


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
            buf.add([k, k], [k], float(k), [k + 1, k + 1], 0.0)
        assert len(buf) == 3

    def test_circular_overwrite(self):
        buf = ReplayBuffer(2, state_dim=1, action_dim=1)
        for k in range(5):
            buf.add([k], [k], float(k), [k], 0.0)
        assert len(buf) == 2
        stored = set(buf.rewards.tolist())
        assert stored == {3.0, 4.0}, "oldest transitions must be overwritten"

    def test_sample_shapes(self):
        buf = ReplayBuffer(16, state_dim=3, action_dim=2)
        for k in range(10):
            buf.add(np.full(3, k), np.full(2, k), float(k), np.full(3, k), 0.0)
        batch = buf.sample(np.random.default_rng(0), 6)
        assert batch["states"].shape == (6, 3)
        assert batch["actions"].shape == (6, 2)
        assert batch["rewards"].shape == (6,)
        assert batch["dones"].shape == (6,)


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


class TestRollout:
    def test_act_sees_each_state_once_and_stats_sum_every_step(self):
        env = tiny_env(steps=4)
        seen = []

        def act(state):
            seen.append(state)
            return np.full(env.action_dim, 0.25), "tag"

        stats = EpisodeStats()
        steps = list(rollout(env, 9, act, stats))
        assert len(seen) == len(steps) == 4
        np.testing.assert_array_equal(seen[0], tiny_env(steps=4).reset(9))
        for k, (state, choice, result) in enumerate(steps):
            assert state is seen[k] and choice[1] == "tag"
            if k:
                assert state is steps[k - 1][2].state
        assert [r.done for _, _, r in steps] == [False, False, False, True]
        assert stats.steps == 4
        assert stats.reward_sum == sum(r.reward for _, _, r in steps)
        assert stats.min_rate_sum == sum(r.info.min_rate for _, _, r in steps)
        assert stats.satisfied_sum == sum(r.info.satisfied_count for _, _, r in steps)

    def test_act_runs_only_after_the_consumer_handled_the_step(self):
        env = tiny_env(steps=3)
        log = []

        def act(state):
            log.append("act")
            return (np.zeros(env.action_dim),)

        for _ in rollout(env, 2, act, EpisodeStats()):
            log.append("body")
        assert log == ["act", "body"] * 3

    def test_normalized_first_observation_is_zero(self):
        env = tiny_env(steps=2)
        norm = ObsNormalizer(env.state_dim)
        state, _, _ = next(rollout(env, 0, lambda s: (np.zeros(env.action_dim),),
                                   EpisodeStats(), norm))
        np.testing.assert_allclose(state, np.zeros(env.state_dim), atol=1e-12)
        assert norm.count == 2, "the reset state and the first step's state"

    def test_normalized_states_stay_finite(self):
        env = tiny_env(steps=30)
        norm = ObsNormalizer(env.state_dim)
        steps = list(rollout(env, 4, lambda s: (np.zeros(env.action_dim),), EpisodeStats(), norm))
        assert norm.count == 31
        for _, _, result in steps:
            assert np.all(np.isfinite(result.state))

    @pytest.mark.parametrize("block", [1, 3, 7, 50])
    def test_blocks_act_and_observe_once_per_state_in_frame_order(self, block):
        env = tiny_env(steps=7)
        raw = [env.reset(6)] + [env.step(np.zeros(env.action_dim)).state for _ in range(7)]
        norm = ObsNormalizer(env.state_dim)
        observed, acted = [], []

        def observe(state):
            observed.append(state.copy())
            return norm(state)

        def act(state):
            acted.append(state)
            return np.full(env.action_dim, 0.1 * len(acted) - 0.4), len(acted)

        stats = EpisodeStats()
        steps = list(rollout(env, 6, act, stats, observe, block=block))
        np.testing.assert_array_equal(observed, raw)  # s_0 ... s_T, once each
        assert norm.count == 8
        assert [choice[1] for _, choice, _ in steps] == list(range(1, 8))
        for t, (state, _, result) in enumerate(steps):
            assert state is acted[t]
            if t:
                assert state is steps[t - 1][2].state
        assert [r.done for _, _, r in steps] == [False] * 6 + [True]
        assert stats.steps == 7
        assert stats.reward_sum == sum(r.reward for _, _, r in steps)

    @pytest.mark.parametrize("block, acts", [(3, [3, 3, 1]), (7, [7]), (4, [4, 3])])
    def test_the_next_block_acts_only_after_the_last_step_was_handled(self, block, acts):
        env = tiny_env(steps=7)
        log = []

        def act(state):
            log.append("act")
            return (np.zeros(env.action_dim),)

        for _ in rollout(env, 2, act, EpisodeStats(), block=block):
            log.append("body")
        assert log == [word for n in acts for word in ["act"] * n + ["body"] * n]


def one_frame_at_a_time(monkeypatch):
    """Make every caller of ``rollout`` step one frame per env.step call."""
    def stepwise(env, seed, act, stats, observe=None, block=1):
        return rollout(env, seed, act, stats, observe)

    for module in (common_module, train_module, a3c_module, harness):
        monkeypatch.setattr(module, "rollout", stepwise)


class TestBlockStepping:
    """PPO, A3C, evaluate_policy and random_policy_trace step blocks of
    frames; one frame per env.step call must give the same bytes."""

    @pytest.mark.parametrize("algo, workers, optimizer", [
        ("ppo", 1, "sgd"), ("ppo", 1, "adam"), ("td3", 1, "sgd"),
        ("a3c", 1, "sgd"), ("a3c", 3, "adam"),
    ])
    def test_training_and_evaluation_match_single_frame_steps(self, monkeypatch, algo,
                                                              workers, optimizer):
        def run():
            cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=3, n_pairs=2,
                               harvest_threshold_joules=1e-14)
            env = SrEnv(cfg, episode_steps=7, normalize_obs=True)
            hyper = small_hyper(algo, workers, optimizer=optimizer)
            agent, trace = train(algo, env, episodes=3, seed=4, hyper=hyper)
            return (trace, agent.state_dict(), evaluate_policy(agent, env, 2, seed=8),
                    random_policy_trace(env, episodes=2, seed=3))

        blocks = run()
        one_frame_at_a_time(monkeypatch)
        frames = run()
        for trace_a, trace_b in ((blocks[0], frames[0]), (blocks[3], frames[3])):
            assert trace_a == trace_b
        assert blocks[1].keys() == frames[1].keys()
        for key, value in blocks[1].items():
            assert np.asarray(value).tobytes() == np.asarray(frames[1][key]).tobytes(), key
        assert blocks[2] == frames[2] and blocks[2]["feasible_steps"] > 0


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
        assert math.isclose(td3_target(1.0, 0.99, 2.0, 3.0, 0.0), 2.98)

    def test_td3_target_takes_min(self):
        assert math.isclose(td3_target(0.0, 1.0, 5.0, 2.0, 0.0), 2.0)

    def test_td3_target_terminal(self):
        assert math.isclose(td3_target(1.0, 0.99, 2.0, 3.0, 1.0), 1.0)

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
            agent.observe(s, rng.uniform(-1, 1, 1), rng.normal(), rng.standard_normal(2), 0.0)

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
        actor_grads, log_std_grad, critic_grads = agent.segment_gradients(
            local_policy, local_critic, states, pres, returns
        )
        for g in actor_grads:
            np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-15)
        for g in critic_grads:
            np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-15)
        np.testing.assert_allclose(log_std_grad, [-0.03], rtol=1e-12)

    def test_apply_gradients_steps_globals(self):
        agent = A3cAgent(state_dim=1, action_dim=1, hidden=(), actor_lr=0.1,
                         critic_lr=0.1, seed=1)
        log_std_before = agent.policy.log_std.copy()
        zero_actor = np.zeros_like(agent.policy.net.flat)
        zero_critic = np.zeros_like(agent.critic.flat)
        agent.apply_gradients(zero_actor, np.array([1.0]), zero_critic)
        np.testing.assert_allclose(agent.policy.log_std, log_std_before - 0.1)

    def test_multi_worker_round_returns_one_stat_per_worker(self):
        env = tiny_env(steps=4)
        agent = A3cAgent(env.state_dim, env.action_dim, hidden=(4,), workers=3,
                         k_steps=2, seed=3)
        observers = [ObsNormalizer(env.state_dim) for _ in range(3)]
        rngs = [np.random.Generator(np.random.Philox(k)) for k in range(3)]
        results = agent.run_episode_round(env, [1, 2, 3], rngs, observers)
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
            results = real_step(actions)
            blocks.append(len(actions))
            next_states.append(results[-1].state)
            return results

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
    ], ids=["ppo-clipp", "ppo-buffer_size", "td3-workers", "a3c-update_epochs"])
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

    def test_zero_episodes_gives_empty_trace(self):
        env = tiny_env(steps=3)
        agent, trace = train("ppo", env, episodes=0, seed=0, hyper={"hidden": (4,)})
        assert len(trace) == 0 and not trace.aborted

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
        np.testing.assert_array_equal(_greedy_action(clone, probe),
                                      _greedy_action(agent, probe))
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
        assert len(_all_nets(agent)) == {"ppo": 2, "td3": 6, "a3c": 2}[algo]
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

    @pytest.mark.parametrize("build, field", [
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), minibatch=0), "minibatch"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), update_epochs=0),
         "update_epochs"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), workers=0), "workers"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), k_steps=0), "k_steps"),
        (lambda: tiny_env(steps=0), "episode_steps"),
    ], ids=["ppo-minibatch", "ppo-update_epochs", "a3c-workers", "a3c-k_steps",
            "env-episode_steps"])
    def test_loop_counts_below_one_are_rejected(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), discount=1.5), "discount"),
        (lambda: A3cAgent(state_dim=2, action_dim=1, hidden=(4,), discount=-0.1), "discount"),
        (lambda: Td3Agent(state_dim=2, action_dim=1, hidden=(4,), discount=float("nan")),
         "discount"),
        (lambda: PpoAgent(state_dim=2, action_dim=1, hidden=(4,), clip=-0.2), "clip"),
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
    ], ids=["ppo-discount", "a3c-discount", "td3-discount-nan", "ppo-clip", "ppo-clip-zero",
            "td3-target_update-zero", "td3-target_update", "env-rate_cap", "env-rate_cap-inf",
            "env-rate_cap-nan", "env-reward_mode", "env-penalty_cost", "env-penalty_cost-inf",
            "env-penalty_cost-nan", "td3-smoothing_noise", "td3-noise_clip", "td3-explore_noise-nan",
            "ppo-init_log_std", "a3c-init_log_std", "ppo-init_log_std-nan"])
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
        agent.observe(np.zeros(2), np.zeros(1), 1.0, np.zeros(2), 0.0)
        assert agent.update() is True


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
