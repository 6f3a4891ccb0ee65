"""The batched decode -> rates -> constraints kernel against the frozen
scalar code in ``scalar_reference.py``.

Every comparison runs on fuzzed batches that include nonphysical decisions:
actions outside the box, all-zero beam chunks, time shares of exactly 0 and
1, negative power (NaN rates), broken passive splits, rate targets past the
exp2 clamp and tied SIC gains, on scenes with one and with several pairs.
A single decision must also equal its row of a batch, and the search
baselines must return what a per-candidate loop returns.  Channels with a lane
axis, one per decision, must give what each lane gives alone, bit for bit, and
the environment must step a block of frames exactly as it steps them one by
one.
"""

import dataclasses
import math

import numpy as np
import pytest

import scalar_reference as ref
from srnoma import harness
from srnoma.env import (EnvProtocolError, SrEnv, action_dim, decode_action, rate_cap_auto,
                        state_dim, state_vector)
from srnoma.harness import evaluate_decision, grid_oracle, random_search
from srnoma.network import (ChannelRealization, SystemConfig, derive_keys, draw_realization,
                            make_placement, next_seed, philox)
from srnoma.problem import constraint_slacks, evaluate_constraints
from srnoma.rates import DecisionVariables, RateReport, rate_report
from srnoma.ris import ACTIVE, PASSIVE, RisCoefficients

RATE_FIELDS = tuple(f.name for f in dataclasses.fields(RateReport))
DECISION_FIELDS = ("eta", "tau", "power", "w1", "w2")
SURFACE_FIELDS = ("beta_t", "beta_r", "theta_t", "theta_r")
SHAPES = [(1, 1, 1), (2, 4, 1), (2, 3, 3), (8, 16, 3), (3, 2, 4)]


def scene(shape, harvest=1e-12, seed=3):
    n, m, users = shape
    cfg = SystemConfig(n_bs_antennas=n, n_ris_elements=m, n_pairs=users,
                       harvest_threshold_joules=harvest)
    return cfg, draw_realization(cfg, make_placement(cfg, seed), seed + 1)


def assert_close(got, want):
    """Equal up to the last bits, NaN where NaN."""
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def assert_same_decision(got: DecisionVariables, want: DecisionVariables):
    assert math.isclose(got.rate_target, want.rate_target, rel_tol=1e-14)
    for name in DECISION_FIELDS:
        assert_close(getattr(got, name), getattr(want, name))
    for name in SURFACE_FIELDS:
        assert_close(getattr(got.ris, name), getattr(want.ris, name))
    assert got.ris.mode == want.ris.mode


def stack(decisions: list) -> DecisionVariables:
    """One batch from single decisions of one surface mode."""
    coeffs = [d.ris for d in decisions]
    ris = RisCoefficients(*(np.stack([getattr(c, f) for c in coeffs]) for f in SURFACE_FIELDS),
                          mode=coeffs[0].mode)
    return DecisionVariables(np.array([d.rate_target for d in decisions]),
                             *(np.stack([getattr(d, f) for d in decisions])
                               for f in DECISION_FIELDS), ris)


def fuzzed_decision(rng, cfg, mode: str, point: int) -> DecisionVariables:
    """Wide draws on both sides of every constraint, with the edge cases
    pinned on a schedule."""
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    if mode == ACTIVE:
        beta_t = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
        beta_r = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
    elif point % 3 == 0:  # broken split
        beta_t, beta_r = rng.uniform(0.0, 1.2, m), rng.uniform(0.0, 1.2, m)
    else:
        beta_t = rng.uniform(0.0, 1.0, m)
        beta_r = 1.0 - beta_t
    tau = rng.uniform(-0.2, 1.2, users)
    tau[rng.integers(users)] = (0.0, 1.0, tau[0])[point % 3]
    power = rng.uniform(-0.2 * cfg.p_bs_max_watts, 1.2 * cfg.p_bs_max_watts, users)
    if point % 5 == 0:
        power[:] = -abs(power)  # sinr < -1: NaN rates

    def beams():
        z = rng.normal(size=(n, users)) + 1j * rng.normal(size=(n, users))
        return z / np.linalg.norm(z, axis=0, keepdims=True)

    # 50 runs past the exp2 clamp of the target families
    target = (0.0, float(rng.uniform(0.0, 1.0)), 50.0, 1e-12, -1.0)[point % 5]
    return DecisionVariables(
        target, rng.uniform(-0.2, 1.2, users), tau, power, beams(), beams(),
        RisCoefficients(beta_t, beta_r, rng.uniform(-0.5, 2.0 * math.pi + 0.5, m),
                        rng.uniform(-0.5, 2.0 * math.pi + 0.5, m), mode=mode),
    )


def check_batch(cfg, ch, decisions: list) -> None:
    """Kernel on the batch, kernel on each single decision and the scalar
    reference must agree row by row."""
    batch = stack(decisions)
    rates = rate_report(ch, batch, cfg)
    slacks = constraint_slacks(ch, batch, cfg, rates)
    scored = evaluate_decision(cfg, ch, batch)
    assert slacks.shape == (len(decisions), 11)
    for b, dv in enumerate(decisions):
        want = ref.rate_report(ch, dv, cfg)
        one = rate_report(ch, dv, cfg)
        for name in RATE_FIELDS:
            np.testing.assert_array_equal(getattr(one, name), getattr(rates, name)[b])
            if name.endswith("order"):
                np.testing.assert_array_equal(getattr(one, name), getattr(want, name))
            else:
                assert_close(getattr(one, name), getattr(want, name))
        assert_close(float(one.min_rates), ref.min_rate(want))
        assert_close(float(one.sum_rates), ref.sum_rate(want))
        report = evaluate_constraints(ch, dv, cfg, one)
        want_report = ref.evaluate_constraints(ch, dv, cfg, want)
        np.testing.assert_array_equal(report.slacks, slacks[b])
        assert_close(report.slacks, want_report.slacks)
        np.testing.assert_array_equal(report.flags, want_report.flags)
        single = evaluate_decision(cfg, ch, dv)
        np.testing.assert_array_equal(single[:2], [scored[0][b], scored[1][b]])
        want_min, want_sum, want_ok = ref.evaluate_decision(cfg, ch, dv)
        assert_close([single[0], single[1]], [want_min, want_sum])
        assert bool(single[2]) is want_ok and bool(scored[2][b]) is want_ok


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_decode_matches_the_scalar_decoder(shape, mode):
    cfg, _ = scene(shape)
    n, users = cfg.n_bs_antennas, cfg.n_pairs
    rng = np.random.Generator(np.random.Philox(7))
    actions = rng.uniform(-1.3, 1.3, (40, action_dim(cfg)))
    beams = slice(1 + 3 * users, 1 + 3 * users + 4 * n * users)
    actions[::5, beams] = 0.0  # every beam column zero: e1 fallback
    actions[1::5, beams.start : beams.start + 2 * n] = 0.0  # first column only
    batch = decode_action(actions, cfg, mode, rate_cap=2.5)
    for b, action in enumerate(actions):
        want = ref.decode_action(action, cfg, mode, rate_cap=2.5)
        one = decode_action(action, cfg, mode, rate_cap=2.5)
        assert_same_decision(one, want)
        assert_same_decision(batch.row(b), one)
        assert isinstance(one.rate_target, float)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_fuzzed_decisions_match_the_scalar_code(shape, mode):
    cfg, ch = scene(shape)
    rng = np.random.Generator(np.random.Philox(11))
    decisions = [fuzzed_decision(rng, cfg, mode, point) for point in range(60)]
    with np.errstate(divide="ignore"):
        check_batch(cfg, ch, decisions)
        rates = rate_report(ch, stack(decisions), cfg)
    all_rates = (rates.phase1_rate, rates.phase2_reflect_rate, rates.phase2_transmit_rate)
    assert any(np.isnan(r).any() for r in all_rates)  # the NaN path was exercised
    assert any(d.rate_target == 50.0 for d in decisions)


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_decoded_actions_match_the_scalar_code(mode):
    cfg, ch = scene((2, 4, 2), harvest=1e-13)
    rng = np.random.Generator(np.random.Philox(5))
    actions = rng.uniform(-1.0, 1.0, (50, action_dim(cfg)))
    actions[::7, 7:23] = 0.0
    batch = decode_action(actions, cfg, mode, rate_cap=4.0)
    check_batch(cfg, ch, [batch.row(b) for b in range(len(actions))])


def test_tied_gains_keep_the_lower_index_first():
    # identical users on identical channels: every strength ties exactly
    cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=3, n_pairs=3,
                       harvest_threshold_joules=0.0)
    rng = np.random.Generator(np.random.Philox(2))
    col = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    row = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    h2 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    ch = ChannelRealization(np.tile(col, 3), np.tile(col, 3), h2, np.tile(col, 3),
                            np.tile(row, (3, 1)), np.tile(row, (3, 1)), seed=0)
    beam = np.tile(col / np.linalg.norm(col), 3)
    decisions = [
        DecisionVariables(0.1, np.full(3, eta), np.full(3, 0.4), np.full(3, 2.0), beam, beam,
                          RisCoefficients(np.ones(3), np.ones(3), np.zeros(3), np.zeros(3)))
        for eta in (0.2, 0.5, 0.9)
    ]
    check_batch(cfg, ch, decisions)
    rates = rate_report(ch, stack(decisions), cfg)
    for name in ("phase1_order", "phase2_reflect_order", "phase2_transmit_order"):
        np.testing.assert_array_equal(getattr(rates, name), np.tile([0, 1, 2], (3, 1)))


def test_negative_surface_gain_is_rejected_for_the_batch():
    cfg, ch = scene((1, 1, 1))
    rng = np.random.Generator(np.random.Philox(3))
    decisions = [fuzzed_decision(rng, cfg, ACTIVE, point) for point in range(4)]
    decisions[2].ris.beta_r[0] = -1.0
    with pytest.raises(ValueError, match="gain"):
        rate_report(ch, stack(decisions), cfg)
    with pytest.raises(ValueError, match="gain"):
        ref.rate_report(ch, decisions[2], cfg)


def assert_same_search(got, want):
    assert got.evaluated == want.evaluated
    assert got.feasible_count == want.feasible_count
    assert got.feasible == want.feasible
    if want.feasible:
        assert math.isclose(got.objective, want.objective, rel_tol=1e-12)
        assert math.isclose(got.sum_rate, want.sum_rate, rel_tol=1e-12)
        assert_same_decision(got.decision, want.decision)
    else:
        assert got.decision is None and got.objective == -math.inf


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_random_search_matches_a_per_candidate_loop(mode):
    # A6's scene; the budget spans two chunks, the second one partly filled
    cfg, ch = scene((2, 4, 1), harvest=1e-13, seed=5)
    budget = harness.CHUNK + 37
    got = random_search(cfg, ch, mode, budget, seed=17)
    assert_same_search(got, ref.random_search(cfg, ch, mode, budget, seed=17))
    assert 0 < got.feasible_count < budget


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 3)])
def test_chunking_does_not_change_the_search(shape, monkeypatch):
    cfg, ch = scene(shape, harvest=1e-13)
    want = ref.random_search(cfg, ch, ACTIVE, 60, seed=4)
    for chunk in (7, 60, 1000):
        monkeypatch.setattr(harness, "CHUNK", chunk)
        assert_same_search(random_search(cfg, ch, ACTIVE, 60, seed=4), want)


def test_larger_budgets_search_supersets_across_a_chunk_boundary():
    cfg, ch = scene((2, 4, 1), harvest=1e-13, seed=5)
    small = random_search(cfg, ch, ACTIVE, harness.CHUNK - 3, seed=8)
    large = random_search(cfg, ch, ACTIVE, harness.CHUNK + 5, seed=8)
    assert large.objective >= small.objective
    assert large.feasible_count >= small.feasible_count


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_grid_oracle_matches_a_per_point_loop(mode):
    # 3^7 = 2187 active points span three chunks
    cfg, ch = scene((1, 1, 1), harvest=1e-12, seed=9)
    got = grid_oracle(cfg, ch, mode, resolution=3)
    axes = {
        "eta": np.linspace(0.0, 1.0, 3),
        "tau": np.linspace(0.0, 1.0, 3),
        "power": np.linspace(0.0, cfg.p_bs_max_watts, 3),
        "beta_t": np.linspace(0.0, cfg.p_asris_watts / 2.0 if mode == ACTIVE else 1.0, 3),
        "beta_r": np.linspace(0.0, cfg.p_asris_watts / 2.0, 3),
        "theta_t": np.linspace(0.0, 2.0 * math.pi, 3),
        "theta_r": np.linspace(0.0, 2.0 * math.pi, 3),
    }
    if mode == PASSIVE:
        del axes["beta_r"]
    want = ref.grid_oracle(cfg, ch, mode, axes)
    assert_same_search(got, want)
    assert 0 < got.feasible_count < got.evaluated


def test_the_best_row_is_the_first_strict_maximum_and_never_nan(monkeypatch):
    # scores planted per grid point: NaN rows never win, and of the three
    # rows that tie at the top, the first one in grid order does
    scores = [1.0, math.nan, 3.0, 2.0, 3.0, math.nan, 0.5, 3.0, 2.0, math.nan]
    infeasible = {3}

    def planted(cfg, ch, batch):
        index = np.rint(batch.eta[:, 0] * 10).astype(int)
        min_rate = np.array([scores[k] for k in index])
        feasible = np.array([k not in infeasible for k in index])
        return min_rate, min_rate + 1.0, feasible

    monkeypatch.setattr(harness, "evaluate_decision", planted)
    monkeypatch.setattr(harness, "CHUNK", 4)
    cfg, ch = scene((1, 1, 1))
    pinned = {"tau": [0.5], "power": [1.0], "beta_t": [1.0], "beta_r": [1.0],
              "theta_t": [0.0], "theta_r": [0.0]}
    result = grid_oracle(cfg, ch, ACTIVE, grids={"eta": np.arange(10) / 10.0, **pinned})
    assert result.evaluated == 10 and result.feasible_count == 9
    assert result.objective == 3.0 and result.sum_rate == 4.0
    np.testing.assert_array_equal(result.decision.eta, [0.2])


# ---------------------------------------------------------------------------
# lanes: a channel per decision


def lane_channels(channels: list) -> ChannelRealization:
    """One realization whose lane l is channels[l]."""
    blocks = (np.stack(same) for same in zip(*(c.blocks() for c in channels)))
    return ChannelRealization(*blocks, tuple(c.seed for c in channels))


def assert_lanes_match(cfg, lanes: ChannelRealization, decisions: list) -> None:
    """The lane call on decision l and channel l equals the call on channel l
    alone, bit for bit and NaN where NaN, for every rate field, the slacks and
    the feasible max-min scores."""
    batch = stack(decisions)
    rates = rate_report(lanes, batch, cfg)
    slacks = constraint_slacks(lanes, batch, cfg, rates)
    scored = evaluate_decision(cfg, lanes, batch)
    assert slacks.shape == (len(decisions), 11)
    for lane, dv in enumerate(decisions):
        ch = lanes.lane(lane)
        one = rate_report(ch, dv, cfg)
        for name in RATE_FIELDS:
            np.testing.assert_array_equal(getattr(rates, name)[lane], getattr(one, name))
        np.testing.assert_array_equal(slacks[lane], constraint_slacks(ch, dv, cfg, one))
        single = evaluate_decision(cfg, ch, dv)
        np.testing.assert_array_equal([col[lane] for col in scored], single)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_lanes_equal_per_lane_calls_bit_for_bit(shape, mode):
    cfg, _ = scene(shape)
    placement = make_placement(cfg, 4)
    seeds = [100 + lane for lane in range(30)]
    rng = np.random.Generator(np.random.Philox(13))
    decisions = [fuzzed_decision(rng, cfg, mode, point) for point in range(30)]
    with np.errstate(divide="ignore"):
        for count in range(1, 31):
            assert_lanes_match(cfg, draw_realization(cfg, placement, seeds[:count]),
                               decisions[:count])
        rates = rate_report(draw_realization(cfg, placement, seeds), stack(decisions), cfg)
    all_rates = (rates.phase1_rate, rates.phase2_reflect_rate, rates.phase2_transmit_rate)
    assert any(np.isnan(r).any() for r in all_rates)  # the NaN path was exercised


def test_lanes_keep_tied_gains_in_index_order():
    # identical users on identical channels, a different channel per lane
    cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=3, n_pairs=3,
                       harvest_threshold_joules=0.0)
    rng = np.random.Generator(np.random.Philox(2))
    channels, decisions = [], []
    for eta in (0.2, 0.5, 0.9, 0.5):
        col = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        row = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
        h2 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        channels.append(ChannelRealization(np.tile(col, 3), np.tile(col, 3), h2, np.tile(col, 3),
                                           np.tile(row, (3, 1)), np.tile(row, (3, 1)), seed=0))
        beam = np.tile(col / np.linalg.norm(col), 3)
        decisions.append(DecisionVariables(
            0.1, np.full(3, eta), np.full(3, 0.4), np.full(3, 2.0), beam, beam,
            RisCoefficients(np.ones(3), np.ones(3), np.zeros(3), np.zeros(3))))
    lanes = lane_channels(channels)
    assert_lanes_match(cfg, lanes, decisions)
    rates = rate_report(lanes, stack(decisions), cfg)
    for name in ("phase1_order", "phase2_reflect_order", "phase2_transmit_order"):
        np.testing.assert_array_equal(getattr(rates, name), np.tile([0, 1, 2], (4, 1)))


@pytest.mark.parametrize("shape", SHAPES)
def test_lane_draws_states_and_rate_caps_equal_single_frames(shape):
    cfg, _ = scene(shape)
    placement = make_placement(cfg, 8)
    seeds = [7 * lane + 1 for lane in range(30)]
    lanes = draw_realization(cfg, placement, seeds)
    assert lanes.seed == tuple(seeds)
    states, caps = state_vector(lanes), rate_cap_auto(lanes, cfg)
    assert states.shape == (30, state_dim(cfg)) and caps.shape == (30,)
    noise = min(cfg.noise_bs_watts, cfg.noise_asris_watts, cfg.noise_sue_watts)
    for lane, seed in enumerate(seeds):
        ch = draw_realization(cfg, placement, seed)
        for got, want in zip(lanes.lane(lane).blocks(), ch.blocks()):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(states[lane], state_vector(ch))
        # the per-frame formula with math.log2, which np.log2 may round
        # differently in the last bit
        gain = max(float(np.max(np.abs(block) ** 2)) for block in ch.blocks())
        want = math.log2(1.0 + cfg.symbols_per_bd_symbol * cfg.p_bs_max_watts * gain / noise)
        assert caps[lane] == rate_cap_auto(ch, cfg) == want


def test_lane_rate_caps_round_like_math_log2():
    # np.log2 rounds about one value in 18,000 differently from math.log2 on
    # some platforms (one of these 20,000 lanes on the x86-64 build this was
    # written on), so a vectorised logarithm would show here
    cfg = SystemConfig(n_bs_antennas=1, n_ris_elements=1, n_pairs=1)
    count = 20_000
    lanes = draw_realization(cfg, make_placement(cfg, 2), range(count))
    gains = np.max([(np.abs(block) ** 2).reshape(count, -1).max(axis=1)
                    for block in lanes.blocks()], axis=0)
    noise = min(cfg.noise_bs_watts, cfg.noise_asris_watts, cfg.noise_sue_watts)
    scale = cfg.symbols_per_bd_symbol * cfg.p_bs_max_watts
    want = [math.log2(1.0 + scale * gain / noise) for gain in gains.tolist()]
    np.testing.assert_array_equal(rate_cap_auto(lanes, cfg), want)


@pytest.mark.parametrize("env_over", [
    {},
    {"rate_cap": 3.0, "r_mode": "derived"},
    {"ris_mode": PASSIVE, "reward_mode": "penalty", "penalty_cost": 0.5},
])
def test_blocks_and_frames_drawn_ahead_equal_single_steps(env_over):
    cfg, _ = scene((2, 3, 2), harvest=1e-13)
    block_env, step_env = (SrEnv(cfg, episode_steps=9, **env_over) for _ in range(2))
    actions = np.random.Generator(np.random.Philox(3)).uniform(-1.2, 1.2, (9, action_dim(cfg)))
    np.testing.assert_array_equal(block_env.reset(21), step_env.reset(21))
    singles = [step_env.step(a) for a in actions]
    ahead = block_env.states  # all 10 frames of the episode, the terminal one included
    assert ahead.shape == (10, state_dim(cfg))
    np.testing.assert_array_equal(ahead[1:], [r.state for r in singles])
    blocks = [block_env.step(actions[a:b]) for a, b in [(0, 4), (4, 5), (5, 8), (8, 9)]]
    assert [len(b.reward) for b in blocks] == [4, 1, 3, 1]
    for block, start in zip(blocks, [0, 4, 5, 8]):
        # one result per block, each field with the block's leading axis
        k = len(block.reward)
        want = singles[start : start + k]
        np.testing.assert_array_equal(block.state, [r.state for r in want])
        assert block.reward.tolist() == [r.reward for r in want]
        assert block.done.tolist() == [r.done for r in want]
        assert block.info.min_rate.tolist() == [r.info.min_rate for r in want]
        assert block.info.satisfied_count.tolist() == [r.info.satisfied_count for r in want]
        assert block.info.rate_cap.tolist() == [r.info.rate_cap for r in want]
        assert block.info.constraints.flags.shape == (k, 11)
        assert all(getattr(block.info.rates, name).shape[0] == k for name in RATE_FIELDS)
    for got, want in zip([b.row(j) for b in blocks for j in range(len(b.reward))], singles):
        np.testing.assert_array_equal(got.state, want.state)
        assert (got.reward, got.done) == (want.reward, want.done)
        assert type(got.reward) is type(want.reward) is float
        assert type(got.done) is type(want.done) is bool
        info, want_info = got.info, want.info
        assert (info.min_rate, info.satisfied_count, info.rate_cap) == (
            want_info.min_rate, want_info.satisfied_count, want_info.rate_cap)
        assert type(info.min_rate) is type(want_info.min_rate) is float
        assert type(info.satisfied_count) is type(want_info.satisfied_count) is int
        assert type(info.rate_cap) is type(want_info.rate_cap) is float
        for name in RATE_FIELDS:
            np.testing.assert_array_equal(getattr(info.rates, name),
                                          getattr(want_info.rates, name))
        np.testing.assert_array_equal(info.constraints.slacks, want_info.constraints.slacks)
        np.testing.assert_array_equal(info.constraints.flags, want_info.constraints.flags)
    with pytest.raises(EnvProtocolError):
        block_env.step(actions[:1])


@pytest.mark.parametrize("shape", SHAPES)
def test_reset_draws_every_frame_of_the_episode_from_its_seed_stream(shape):
    cfg, _ = scene(shape)
    steps, seed = 6, 17
    env = SrEnv(cfg, episode_steps=steps)
    first = env.reset(seed)
    states = env.states
    block = env.step(np.zeros((steps, action_dim(cfg))))
    placement_key, channel_key = derive_keys(seed, 2)
    placement, seeds = make_placement(cfg, placement_key), philox(channel_key)
    want = [state_vector(draw_realization(cfg, placement, next_seed(seeds)))
            for _ in range(steps + 1)]
    np.testing.assert_array_equal(first, want[0])
    np.testing.assert_array_equal(states, want)
    np.testing.assert_array_equal(block.state, want[1:])
    assert block.done.tolist() == [False] * (steps - 1) + [True]
    # the states are the episode's own rows: a caller cannot overwrite them
    assert not (first.flags.writeable or states.flags.writeable or block.state.flags.writeable)


def test_a_block_past_the_episode_end_is_refused():
    cfg, _ = scene((1, 1, 1))
    env = SrEnv(cfg, episode_steps=3, rate_cap=1.0)
    env.reset(0)
    with pytest.raises(EnvProtocolError, match="3 steps left"):
        env.step(np.zeros((4, action_dim(cfg))))
    assert env.step(np.zeros((3, action_dim(cfg)))).reward.shape == (3,)
    with pytest.raises(EnvProtocolError):
        env.step(np.zeros((1, action_dim(cfg))))
