"""Tests of the benchmark's independent reference scorer.

The reference must reproduce A1's hand closed forms and agree with the
package on fuzzed inputs, nonphysical ones included: negative power (NaN
rates), time shares of exactly 0 and 1, rate targets past the exp2 clamp,
broken passive splits, phases outside [0, 2 pi] and actions outside the box.
"""

import dataclasses
import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import reference  # noqa: E402
from srnoma.env import SrEnv, decode_action, rate_cap_auto, state_vector  # noqa: E402
from srnoma.network import SystemConfig, draw_realization, make_placement  # noqa: E402
from srnoma.problem import LITERAL, evaluate_constraints, reward  # noqa: E402
from srnoma.rates import DecisionVariables, rate_report  # noqa: E402
from srnoma.ris import ACTIVE, PASSIVE, RisCoefficients  # noqa: E402


def _same(got, want) -> bool:
    return all(reference.close(float(g), float(w)) for g, w in zip(got, want, strict=True))


def test_scalar_rates_match_hand_closed_forms():
    cfg = SystemConfig(
        n_bs_antennas=1, n_ris_elements=1, n_pairs=1,
        noise_bs_watts=2.0, noise_asris_watts=0.5, noise_sue_watts=1.0,
        harvest_threshold_joules=0.0,
    )
    ch = reference.Channel(h1=[[2.0 + 0j]], g1=[[1.5 + 0j]], h2=[[1.0 + 0j]],
                           h3=[[0.3 + 0j]], g2r=[[0.8 + 0j]], g2t=[[0.6 + 0j]])
    dv = reference.Decision(0.1, [0.5], [0.4], [2.0], [[1 + 0j]], [[1 + 0j]],
                            [4.0], [2.25], [0.0], [0.0], ACTIVE)
    got = reference.score(ch, dv, cfg)
    # backscatter: strength 2*0.5*1.5^2*|2|^2 = 9, sinr 100*9/2 = 450;
    # reflect row 0.8*1.5 + 0.3 = 1.5, transmit row 0.6*2 = 1.2, noise
    # 0.8^2*1.5^2*0.5 + 1 = 1.72 on both sides
    want = [
        (got.phase1_rate[0], (0.4 / 100.0) * math.log2(451.0)),
        (got.phase2_reflect_rate[0], 0.6 * math.log2(1.0 + 4.5 / 1.72)),
        (got.phase2_transmit_rate[0], 0.6 * math.log2(1.0 + 2.88 / 1.72)),
        (got.phase1_sinr[0], 450.0),
        (got.phase2_reflect_sinr[0], 4.5 / 1.72),
        (got.phase2_transmit_sinr[0], 2.88 / 1.72),
    ]
    assert max(abs(g - w) / abs(w) for g, w in want) < 1e-12


def _fuzzed_decision(rng, cfg, point: int) -> DecisionVariables:
    """Wide draws that land on both sides of every family, with the edge
    cases pinned on a schedule."""
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    mode = ACTIVE if point % 2 == 0 else PASSIVE
    if mode == ACTIVE:
        beta_t = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
        beta_r = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
    elif point % 4 == 1:
        beta_t, beta_r = rng.uniform(0.0, 1.2, m), rng.uniform(0.0, 1.2, m)
    else:
        beta_t = rng.uniform(0.0, 1.0, m)
        beta_r = 1.0 - beta_t
    tau = rng.uniform(-0.2, 1.2, users)
    tau[rng.integers(users)] = (0.0, 1.0, tau[0])[point % 3]
    power = rng.uniform(-0.2 * cfg.p_bs_max_watts, 1.2 * cfg.p_bs_max_watts, users)
    if point % 5 == 0:
        power[:] = -abs(power)  # nonphysical: sinr < -1 gives NaN rates

    def beams():
        z = rng.normal(size=(n, users)) + 1j * rng.normal(size=(n, users))
        return z / np.linalg.norm(z, axis=0, keepdims=True)

    target = (0.0, float(rng.uniform(0.0, 1.0)), 50.0, 1e-12)[point % 4]  # 50: exp2 clamp
    return DecisionVariables(
        rate_target=target,
        eta=rng.uniform(-0.2, 1.2, users),
        tau=tau,
        power=power,
        w1=beams(),
        w2=beams(),
        ris=RisCoefficients(beta_t, beta_r, rng.uniform(-0.5, 2.0 * math.pi + 0.5, m),
                            rng.uniform(-0.5, 2.0 * math.pi + 0.5, m), mode=mode),
    )


@pytest.mark.parametrize("shape", [(2, 3, 3), (1, 1, 1), (3, 2, 2)])
def test_fuzzed_decisions_agree_with_the_package(shape):
    n, m, users = shape
    cfg = SystemConfig(n_bs_antennas=n, n_ris_elements=m, n_pairs=users,
                       harvest_threshold_joules=1e-12)
    ch = draw_realization(cfg, make_placement(cfg, seed=3), seed=4)
    rng = np.random.Generator(np.random.Philox(123))
    seen = {"nan": 0, "clamp": 0, "flags": np.zeros((2, 11), dtype=int)}
    for point in range(300):
        dv = _fuzzed_decision(rng, cfg, point)
        with np.errstate(divide="ignore"):
            rates = rate_report(ch, dv, cfg)
        report = evaluate_constraints(ch, dv, cfg, rates)
        ref = reference.score(ch, dv, cfg)

        assert _same(ref.phase1_rate, rates.phase1_rate)
        assert _same(ref.phase2_reflect_rate, rates.phase2_reflect_rate)
        assert _same(ref.phase2_transmit_rate, rates.phase2_transmit_rate)
        assert _same(ref.phase1_sinr, rates.phase1_sinr)
        assert _same(ref.phase2_reflect_sinr, rates.phase2_reflect_sinr)
        assert _same(ref.phase2_transmit_sinr, rates.phase2_transmit_sinr)
        assert ref.phase1_order == rates.phase1_order.tolist()
        assert ref.phase2_reflect_order == rates.phase2_reflect_order.tolist()
        assert ref.phase2_transmit_order == rates.phase2_transmit_order.tolist()
        for k in range(reference.N_CONSTRAINTS):
            assert reference.close(report.slacks[k], ref.slacks[k], scale=ref.scales[k]), (
                point, k, report.slacks[k], ref.slacks[k])
        # verdicts agree away from the boundary
        assert all(bool(report.flags[k]) == ref.flags[k] or reference.ambiguous(ref, k)
                   for k in range(reference.N_CONSTRAINTS))
        lo, hi = reference.satisfied_range(ref)
        assert lo <= report.satisfied_count <= hi
        assert reference.close(
            reference.literal_reward(dv.rate_target, report.satisfied_count),
            reward(dv.rate_target, report, LITERAL))

        seen["nan"] += any(math.isnan(r) for r in ref.all_rates)
        seen["clamp"] += dv.rate_target == 50.0
        seen["flags"][0] += report.flags
        seen["flags"][1] += ~report.flags
    assert seen["nan"] > 0 and seen["clamp"] > 0
    if users > 1:  # every family lands on both sides of its boundary
        assert (seen["flags"] > 0).all()


def test_negative_surface_gain_is_rejected_like_the_package():
    cfg = SystemConfig(n_bs_antennas=1, n_ris_elements=1, n_pairs=1)
    ch = draw_realization(cfg, make_placement(cfg, seed=1), seed=2)
    dv = DecisionVariables(0.0, [0.5], [0.5], [1.0], [[1 + 0j]], [[1 + 0j]],
                           RisCoefficients([-1.0], [1.0], [0.0], [0.0], mode=ACTIVE))
    with pytest.raises(ValueError):
        rate_report(ch, dv, cfg)
    with pytest.raises(ValueError):
        reference.score(ch, dv, cfg)


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_decode_matches_the_package_inside_and_outside_the_box(mode):
    cfg = SystemConfig(n_bs_antennas=3, n_ris_elements=4, n_pairs=2)
    dim = reference.action_dim(cfg)
    rng = np.random.Generator(np.random.Philox(9))
    for point in range(100):
        action = rng.uniform(-1.3, 1.3, dim)
        if point % 10 == 0:
            action[1 + 3 * cfg.n_pairs : 1 + 3 * cfg.n_pairs + 6] = 0.0  # zero beam -> e1
        got = reference.decode(action, cfg, mode, rate_cap=3.0)
        want = reference.decision_from(decode_action(action, cfg, mode, rate_cap=3.0))
        for field in dataclasses.fields(reference.Decision):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if field.name in ("w1", "w2"):
                assert all(reference.close(abs(x - y), 0.0, scale=1.0)
                           for gr, wr in zip(g, w, strict=True) for x, y in zip(gr, wr))
            else:
                assert g == w, field.name


def test_state_parsing_and_auto_rate_cap_match_the_package():
    cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=3, n_pairs=2)
    ch = draw_realization(cfg, make_placement(cfg, seed=6), seed=7)
    parsed = reference.channel_from_state(state_vector(ch), 2, 3, 2)
    assert parsed == reference.channel_from(ch)
    assert reference.close(reference.rate_cap_auto(parsed, cfg), rate_cap_auto(ch, cfg))


def test_env_steps_rescore_exactly():
    cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=4, n_pairs=2,
                       harvest_threshold_joules=1e-13)
    env = SrEnv(cfg, episode_steps=30, normalize_obs=False)
    rng = np.random.Generator(np.random.Philox(5))
    state = env.reset(11)
    for _ in range(30):
        action = rng.uniform(-1.5, 1.5, env.action_dim)
        ch = reference.channel_from_state(state, 2, 4, 2)
        cap = reference.rate_cap_auto(ch, cfg)
        dv = reference.decode(np.clip(action, -1.0, 1.0), cfg, ACTIVE, cap)
        ref = reference.score(ch, dv, cfg)
        result = env.step(action)
        assert reference.close(result.info.min_rate, ref.min_rate)
        assert result.info.satisfied_count == ref.satisfied_count
        assert reference.close(result.reward,
                               reference.literal_reward(dv.rate_target, ref.satisfied_count))
        state = result.state

