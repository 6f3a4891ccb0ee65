"""Tests for the episodic decision environment.

Covers dimension bookkeeping, the box-action decoding (midpoints, boundaries,
beam normalization, surface-mode differences), the reset/step protocol,
reproducibility, and reward consistency in both target modes.
"""

import math
import weakref

import numpy as np
import pytest

from srnoma import env as env_module
from srnoma.env import (
    EnvProtocolError,
    SrEnv,
    action_dim,
    decode_action,
    rate_cap_auto,
    state_dim,
    state_vector,
)
from srnoma.network import SystemConfig, draw_realization, make_placement
from srnoma.problem import CONSTRAINT_NAMES
from srnoma.ris import ACTIVE, PASSIVE

IDX = {name: k for k, name in enumerate(CONSTRAINT_NAMES)}


def small_cfg(**over):
    base = dict(n_bs_antennas=2, n_ris_elements=2, n_pairs=1)
    base.update(over)
    return SystemConfig(**base)


def tiny_cfg(**over):
    base = dict(n_bs_antennas=1, n_ris_elements=1, n_pairs=1)
    base.update(over)
    return SystemConfig(**base)


# ===========================================================================
# dimensions and state flattening
# ===========================================================================


class TestDimensions:
    def test_small_scene(self):
        cfg = small_cfg()
        assert state_dim(cfg) == 28
        assert action_dim(cfg) == 20

    def test_default_scene(self):
        cfg = SystemConfig()
        n, m, i = 8, 16, 3
        assert state_dim(cfg) == 2 * (3 * n * i + m * n + 2 * i * m)
        assert action_dim(cfg) == 1 + 3 * i + 4 * n * i + 4 * m

    def test_state_vector_layout(self):
        cfg = tiny_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=0), seed=0)
        s = state_vector(ch)
        assert s.shape == (state_dim(cfg),)
        assert s.dtype == np.float64
        # first block is h1: real part then imaginary part
        assert s[0] == ch.h1[0, 0].real and s[1] == ch.h1[0, 0].imag


# ===========================================================================
# action decoding
# ===========================================================================


class TestDecodeAction:
    def test_midpoint_action(self):
        cfg = small_cfg()
        dv = decode_action(np.zeros(20), cfg, ACTIVE, rate_cap=4.0)
        assert math.isclose(dv.rate_target, 2.0)
        np.testing.assert_allclose(dv.eta, [0.5])
        np.testing.assert_allclose(dv.tau, [0.5])
        np.testing.assert_allclose(dv.power, [10.0])
        np.testing.assert_allclose(dv.ris.beta_t, [2.5, 2.5])
        np.testing.assert_allclose(dv.ris.beta_r, [2.5, 2.5])
        np.testing.assert_allclose(dv.ris.theta_t, [np.pi, np.pi])
        np.testing.assert_allclose(dv.ris.theta_r, [np.pi, np.pi])

    def test_upper_boundary_action(self):
        cfg = small_cfg()
        dv = decode_action(np.ones(20), cfg, ACTIVE, rate_cap=4.0)
        assert math.isclose(dv.rate_target, 4.0)
        np.testing.assert_allclose(dv.eta, [1.0])
        np.testing.assert_allclose(dv.power, [20.0])
        np.testing.assert_allclose(dv.ris.beta_t, [5.0, 5.0])
        np.testing.assert_allclose(dv.ris.theta_t, [2 * np.pi, 2 * np.pi])

    def test_lower_boundary_action(self):
        cfg = small_cfg()
        dv = decode_action(-np.ones(20), cfg, ACTIVE, rate_cap=4.0)
        assert dv.rate_target == 0.0
        np.testing.assert_allclose(dv.power, [0.0])
        np.testing.assert_allclose(dv.ris.beta_t, [0.0, 0.0])
        np.testing.assert_allclose(dv.ris.theta_t, [0.0, 0.0])

    def test_beam_columns_are_normalized(self):
        cfg = small_cfg()
        a = np.zeros(20)
        a[4:8] = [3.0, 4.0, 0.0, 0.0]  # w1 column: real parts (3, 4), no imag
        dv = decode_action(a, cfg, ACTIVE, rate_cap=1.0)
        np.testing.assert_allclose(dv.w1[:, 0], [0.6, 0.8])
        assert math.isclose(np.linalg.norm(dv.w2[:, 0]), 1.0)

    def test_zero_beam_falls_back_to_first_antenna(self):
        cfg = small_cfg()
        dv = decode_action(np.zeros(20), cfg, ACTIVE, rate_cap=1.0)
        np.testing.assert_allclose(dv.w1[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(dv.w2[:, 0], [1.0, 0.0])

    def test_complex_beam_encoding(self):
        cfg = small_cfg()
        a = np.zeros(20)
        a[4:8] = [1.0, 0.0, 1.0, 0.0]  # (1 + 1j, 0)
        dv = decode_action(a, cfg, ACTIVE, rate_cap=1.0)
        np.testing.assert_allclose(dv.w1[:, 0], [(1 + 1j) / math.sqrt(2), 0.0])

    def test_passive_mode_ties_the_split(self):
        cfg = small_cfg()
        a = np.zeros(20)
        a[12:14] = [0.5, -0.5]  # beta_t block -> (0.75, 0.25)
        a[14:16] = [1.0, 1.0]  # beta_r block must be ignored
        dv = decode_action(a, cfg, PASSIVE, rate_cap=1.0)
        np.testing.assert_allclose(dv.ris.beta_t, [0.75, 0.25])
        np.testing.assert_allclose(dv.ris.beta_r, [0.25, 0.75])
        assert dv.ris.mode == PASSIVE

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            decode_action(np.zeros(7), small_cfg(), ACTIVE, 1.0)

    def test_decoded_actions_always_satisfy_box_constraints(self):
        # every decoded decision respects C2..C6 by construction (active mode)
        cfg = small_cfg()
        rng = np.random.default_rng(1)
        for _ in range(300):
            dv = decode_action(rng.uniform(-1, 1, 20), cfg, ACTIVE, rate_cap=3.0)
            assert np.all((dv.eta >= 0) & (dv.eta <= 1))
            assert np.all((dv.tau >= 0) & (dv.tau <= 1))
            assert np.all((dv.power >= 0) & (dv.power <= cfg.p_bs_max_watts))
            assert np.all(dv.ris.beta_t <= cfg.p_asris_watts / 2)
            assert np.all(dv.ris.beta_r <= cfg.p_asris_watts / 2)
            thetas = np.concatenate([dv.ris.theta_t, dv.ris.theta_r])
            assert np.all((thetas >= 0) & (thetas <= 2 * np.pi))
            np.testing.assert_allclose(np.linalg.norm(dv.w1, axis=0), 1.0, rtol=1e-12)


# ===========================================================================
# episode protocol
# ===========================================================================


class TestProtocol:
    def test_reset_returns_state_of_right_shape(self):
        env = SrEnv(small_cfg(), episode_steps=5)
        s = env.reset(seed=0)
        assert s.shape == (28,)
        assert np.all(np.isfinite(s))

    def test_same_seed_same_initial_state(self):
        env = SrEnv(small_cfg(), episode_steps=5)
        a = env.reset(seed=42)
        b = env.reset(seed=42)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seeds_that_are_not_counts_from_zero_are_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SrEnv(small_cfg(), episode_steps=5).reset(seed=seed)

    def test_different_seeds_differ(self):
        env = SrEnv(small_cfg(), episode_steps=5)
        a = env.reset(seed=1).copy()
        b = env.reset(seed=2)
        assert not np.allclose(a, b)

    def test_episode_terminates_after_configured_steps(self):
        env = SrEnv(small_cfg(), episode_steps=3)
        env.reset(seed=0)
        action = np.zeros(20)
        dones = [env.step(action).done for _ in range(3)]
        assert dones == [False, False, True]

    def test_step_after_done_raises(self):
        env = SrEnv(small_cfg(), episode_steps=1)
        env.reset(seed=0)
        env.step(np.zeros(20))
        with pytest.raises(EnvProtocolError):
            env.step(np.zeros(20))

    @pytest.mark.parametrize("blocks", [[1, 1, 1], [2, 1], [3]])
    def test_the_last_step_releases_the_episode_lanes(self, monkeypatch, blocks):
        # the results the caller keeps must not pin the episode's channels
        drawn = []

        def draw(*args):
            episode = draw_realization(*args)
            drawn.append(weakref.ref(episode))
            return episode

        monkeypatch.setattr(env_module, "draw_realization", draw)
        env = SrEnv(small_cfg(), episode_steps=3)
        env.reset(seed=0)
        results = []
        for k in blocks:
            assert drawn[0]() is not None
            results.append(env.step(np.zeros((k, 20))))
        assert results[-1].done[-1] and drawn[0]() is None

    def test_step_before_reset_raises(self):
        env = SrEnv(small_cfg(), episode_steps=1)
        with pytest.raises(EnvProtocolError):
            env.step(np.zeros(20))

    def test_actions_outside_box_are_clipped(self):
        env = SrEnv(small_cfg(), episode_steps=2, rate_cap=2.0)
        for wild, tame in [(10.0, 1.0), (math.inf, 1.0), (-math.inf, -1.0)]:
            env.reset(seed=0)
            got = env.step(wild * np.ones(20))
            env.reset(seed=0)
            assert got.reward == env.step(tame * np.ones(20)).reward

    @pytest.mark.parametrize("where", ["all", "one component", "one row of a block"])
    def test_a_nan_action_is_rejected_before_the_episode_advances(self, where):
        env = SrEnv(small_cfg(), episode_steps=3)
        fresh = SrEnv(small_cfg(), episode_steps=3)
        env.reset(seed=4)
        bad = np.zeros((2, 20)) if where == "one row of a block" else np.zeros(20)
        if where == "all":
            bad[:] = math.nan
        else:
            bad.flat[-1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            env.step(bad)
        fresh.reset(seed=4)
        got, want = env.step(np.zeros(20)), fresh.step(np.zeros(20))
        np.testing.assert_array_equal(got.state, want.state)
        assert got.reward == want.reward and not got.done

    def test_a_used_env_replays_a_seed_like_a_fresh_one(self):
        # nothing carries over between episodes: after an abandoned episode a
        # reset replays the seed exactly like a new environment, raw states
        # included even with normalize_obs set
        used = SrEnv(small_cfg(), episode_steps=4, rate_cap=2.0, normalize_obs=True)
        fresh = SrEnv(small_cfg(), episode_steps=4, rate_cap=2.0, normalize_obs=True)
        actions = np.random.default_rng(7).uniform(-1, 1, size=(4, 20))
        used.reset(seed=5)
        used.step(actions[0])
        state = used.reset(seed=3)
        np.testing.assert_array_equal(state, fresh.reset(seed=3))
        np.testing.assert_array_equal(state, used.states[0])
        for t, a in enumerate(actions):
            got, want = used.step(a), fresh.step(a)
            np.testing.assert_array_equal(got.state, want.state)
            np.testing.assert_array_equal(got.state, used.states[t + 1])
            assert got.reward == want.reward and got.done == want.done

    def test_fixed_rate_cap_wins(self):
        env = SrEnv(small_cfg(), episode_steps=1, rate_cap=7.5)
        env.reset(seed=0)
        assert env.step(np.zeros(20)).info.rate_cap == 7.5

    def test_auto_rate_cap_bounds_any_achieved_rate(self):
        cfg = tiny_cfg()
        env = SrEnv(cfg, episode_steps=20)
        env.reset(seed=5)
        rng = np.random.default_rng(5)
        for _ in range(20):
            result = env.step(rng.uniform(-1, 1, env.action_dim))
            assert result.info.min_rate <= result.info.rate_cap, "cap must dominate the min rate"


# ===========================================================================
# rewards
# ===========================================================================


class TestRewards:
    def test_literal_reward_uses_action_target(self):
        env = SrEnv(small_cfg(), episode_steps=1, rate_cap=4.0, r_mode="literal")
        env.reset(seed=0)
        result = env.step(np.zeros(20))
        # target = cap / 2; reward = target * (1 + satisfied)
        expected = 2.0 * (1 + result.info.satisfied_count)
        assert math.isclose(result.reward, expected, rel_tol=1e-12)

    def test_derived_reward_uses_achieved_min_rate(self):
        env = SrEnv(small_cfg(), episode_steps=1, rate_cap=4.0, r_mode="derived")
        env.reset(seed=0)
        result = env.step(np.zeros(20))
        expected = result.info.min_rate * (1 + result.info.satisfied_count)
        assert math.isclose(result.reward, expected, rel_tol=1e-12)
        flags = result.info.constraints.flags
        assert flags[IDX["rate_target_phase1"]], "derived target is achievable"
        assert flags[IDX["rate_target_phase2"]]

    def test_penalty_reward_mode(self):
        env = SrEnv(
            small_cfg(), episode_steps=1, rate_cap=4.0,
            reward_mode="penalty", penalty_cost=2.0,
        )
        env.reset(seed=0)
        result = env.step(np.zeros(20))
        violated = 11 - result.info.satisfied_count
        assert math.isclose(result.reward, 2.0 - 2.0 * violated, rel_tol=1e-12)

    def test_box_constraints_hold_on_every_step(self):
        env = SrEnv(small_cfg(), episode_steps=50, rate_cap=2.0)
        env.reset(seed=9)
        rng = np.random.default_rng(9)
        for _ in range(50):
            info = env.step(rng.uniform(-1, 1, 20)).info
            flags = info.constraints.flags
            for name in ("active_gain", "phase_range", "power_cap", "eta_range", "tau_range"):
                assert flags[IDX[name]], f"{name} must hold for decoded actions"


class TestFuzz:
    def test_random_actions_never_break_the_physics(self):
        # wide fuzz on the smallest scene: rewards and slacks stay finite
        env = SrEnv(tiny_cfg(), episode_steps=500, rate_cap=5.0)
        rng = np.random.default_rng(123)
        total = 0
        for episode in range(5):
            env.reset(seed=1000 + episode)
            for _ in range(500):
                result = env.step(rng.uniform(-1.5, 1.5, env.action_dim))
                assert np.isfinite(result.reward), "reward must stay finite"
                assert np.all(np.isfinite(result.info.constraints.slacks))
                assert np.all(np.isfinite(result.state))
                total += 1
        assert total == 2500

    def test_fuzz_wider_scene(self):
        env = SrEnv(
            small_cfg(n_pairs=2), episode_steps=200, rate_cap=5.0, r_mode="derived"
        )
        rng = np.random.default_rng(321)
        env.reset(seed=77)
        for _ in range(200):
            result = env.step(rng.uniform(-1, 1, env.action_dim))
            assert np.isfinite(result.reward)
            assert result.info.min_rate >= 0.0


class TestFrozenRegression:
    def test_zero_action_step_is_stable(self):
        # pins the full physics pipeline on one deterministic draw; any change
        # to channel generation, decoding or rate math moves this number
        env = SrEnv(small_cfg(), episode_steps=1, rate_cap=4.0)
        env.reset(seed=0)
        result = env.step(np.zeros(20))
        assert math.isclose(result.reward, FROZEN_ZERO_ACTION_REWARD, rel_tol=1e-12), (
            f"frozen reward drifted: {result.reward!r}"
        )
        assert math.isclose(
            result.info.min_rate, FROZEN_ZERO_ACTION_MIN_RATE, rel_tol=1e-12
        ), f"frozen min rate drifted: {result.info.min_rate!r}"


# computed once from the shipped defaults (seed 0, zero action, cap 4.0) and
# frozen; see TestFrozenRegression
FROZEN_ZERO_ACTION_REWARD = 18.0
FROZEN_ZERO_ACTION_MIN_RATE = 2.2202097970132544e-08


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
