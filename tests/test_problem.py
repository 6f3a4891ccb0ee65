"""Tests for constraint evaluation, harvested energy and the reward signal.

Scalar scenes use unit channels so all quantities reduce to arithmetic that a
reader can verify by hand.  Synthetic rate reports are substituted where a
test needs full control over the rate/order vectors.
"""

import math

import numpy as np
import pytest

from srnoma.network import ChannelRealization, SystemConfig
from srnoma.problem import (
    CONSTRAINT_NAMES,
    LITERAL,
    N_CONSTRAINTS,
    PENALTY,
    ConstraintReport,
    evaluate_constraints,
    harvested_energy,
    objective,
    reward,
)
from srnoma.rates import DecisionVariables, RateReport, rate_report
from srnoma.ris import ACTIVE, PASSIVE, RisCoefficients

NEGLIGIBLE = 1e-30

IDX = {name: k for k, name in enumerate(CONSTRAINT_NAMES)}


def make_cfg(i=1, **over):
    base = dict(
        n_bs_antennas=1,
        n_ris_elements=1,
        n_pairs=i,
        bandwidth_hz=1.0,
        noise_bs_watts=NEGLIGIBLE,
        noise_asris_watts=NEGLIGIBLE,
        noise_sue_watts=NEGLIGIBLE,
        p_bs_max_watts=20.0,
        p_asris_watts=10.0,
    )
    base.update(over)
    return SystemConfig(**base)


def unit_channels(i=1):
    ones = np.ones((1, i), dtype=complex)
    row = np.ones((i, 1), dtype=complex)
    return ChannelRealization(
        ones, ones, np.ones((1, 1), dtype=complex), ones, row, row, seed=0
    )


def make_ris(beta_t=1.0, beta_r=1.0, theta_t=0.0, theta_r=0.0, mode=ACTIVE):
    one = lambda v: np.array([float(v)])
    return RisCoefficients(one(beta_t), one(beta_r), one(theta_t), one(theta_r), mode)


def make_decision(i=1, rate_target=0.0, eta=0.5, tau=0.5, power=1.0, ris=None):
    return DecisionVariables(
        rate_target=rate_target,
        eta=np.full(i, float(eta)),
        tau=np.full(i, float(tau)),
        power=np.full(i, float(power)),
        w1=np.ones((1, i), dtype=complex),
        w2=np.ones((1, i), dtype=complex),
        ris=ris if ris is not None else make_ris(),
    )


def constant_report(i, value=1.0):
    """Rate report with equal rates everywhere; orders are identity."""
    rates_arr = np.full(i, float(value))
    sinr = np.full(i, 10.0)
    order = np.arange(i)
    return RateReport(
        rates_arr.copy(), rates_arr.copy(), rates_arr.copy(),
        sinr.copy(), sinr.copy(), sinr.copy(),
        order.copy(), order.copy(), order.copy(),
    )


def evaluate(dv, cfg=None, ch=None, rates=None):
    cfg = cfg or make_cfg(i=len(dv.eta))
    ch = ch or unit_channels(i=len(dv.eta))
    rates = rates or rate_report(ch, dv, cfg)
    return evaluate_constraints(ch, dv, cfg, rates)


# ===========================================================================
# harvested energy
# ===========================================================================


class TestHarvest:
    def test_scalar_oracle(self):
        # 1.0 * 2 W * (1 - 0.5) * (1 - 0.5) * 1 = 0.5 J
        cfg = make_cfg(energy_conversion_efficiency=1.0)
        dv = make_decision(power=2.0)
        got = harvested_energy(unit_channels(), dv, cfg)
        np.testing.assert_allclose(got, [0.5], rtol=1e-12)

    def test_full_backscatter_share_harvests_nothing(self):
        cfg = make_cfg(energy_conversion_efficiency=1.0)
        dv = make_decision(eta=1.0)
        np.testing.assert_allclose(harvested_energy(unit_channels(), dv, cfg), [0.0])

    def test_full_time_share_harvests_nothing(self):
        cfg = make_cfg(energy_conversion_efficiency=1.0)
        dv = make_decision(tau=1.0)
        np.testing.assert_allclose(harvested_energy(unit_channels(), dv, cfg), [0.0])

    def test_zero_efficiency_harvests_nothing(self):
        cfg = make_cfg(energy_conversion_efficiency=0.0)
        dv = make_decision()
        np.testing.assert_allclose(harvested_energy(unit_channels(), dv, cfg), [0.0])


# ===========================================================================
# constraint flags and slacks
# ===========================================================================


class TestConstraints:
    def test_clean_scene_satisfies_everything(self):
        cfg = make_cfg(harvest_threshold_joules=1e-3)
        report = evaluate(make_decision(), cfg=cfg)
        assert report.flags.all(), (
            f"violated: {[n for n, f in zip(CONSTRAINT_NAMES, report.flags) if not f]}"
        )
        assert report.satisfied_count == N_CONSTRAINTS

    def test_flags_match_slack_signs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dv = make_decision(
                eta=rng.uniform(-0.5, 1.5),
                tau=rng.uniform(-0.5, 1.5),
                power=rng.uniform(-5.0, 30.0),
                rate_target=rng.uniform(0.0, 3.0),
                ris=make_ris(
                    beta_t=rng.uniform(0.0, 8.0),
                    beta_r=rng.uniform(0.0, 8.0),
                    theta_t=rng.uniform(-1.0, 8.0),
                    theta_r=rng.uniform(-1.0, 8.0),
                ),
            )
            report = evaluate(dv)
            np.testing.assert_array_equal(
                report.flags, report.slacks >= 0.0,
                err_msg="a flag must hold exactly when its slack is nonnegative",
            )
            assert np.all(np.isfinite(report.slacks)), "slacks must stay finite"

    def test_eta_out_of_range(self):
        report = evaluate(make_decision(eta=1.5))
        assert not report.flags[IDX["eta_range"]]
        assert math.isclose(report.slacks[IDX["eta_range"]], -0.5, rel_tol=1e-12)

    def test_power_above_cap(self):
        report = evaluate(make_decision(power=25.0))
        assert not report.flags[IDX["power_cap"]]
        assert math.isclose(report.slacks[IDX["power_cap"]], -5.0, rel_tol=1e-12)

    def test_negative_power_rejected_too(self):
        report = evaluate(make_decision(power=-1.0))
        assert not report.flags[IDX["power_cap"]]

    def test_phase_above_two_pi(self):
        report = evaluate(make_decision(ris=make_ris(theta_t=7.0)))
        assert not report.flags[IDX["phase_range"]]
        assert math.isclose(
            report.slacks[IDX["phase_range"]], 2.0 * math.pi - 7.0, rel_tol=1e-12
        )

    def test_passive_split_checked_only_in_passive_mode(self):
        ok = evaluate(make_decision(ris=make_ris(0.4, 0.6, mode=PASSIVE)))
        assert ok.flags[IDX["passive_split"]]
        assert ok.slacks[IDX["passive_split"]] == 0.0
        bad = evaluate(make_decision(ris=make_ris(0.9, 0.9, mode=PASSIVE)))
        assert not bad.flags[IDX["passive_split"]]
        assert math.isclose(bad.slacks[IDX["passive_split"]], -0.8, rel_tol=1e-12)
        # same betas are legal for an amplifying surface
        active = evaluate(make_decision(ris=make_ris(0.9, 0.9, mode=ACTIVE)))
        assert active.flags[IDX["passive_split"]]

    def test_active_gain_cap_is_half_supply(self):
        at_cap = evaluate(make_decision(ris=make_ris(5.0, 5.0)))
        assert at_cap.flags[IDX["active_gain"]]
        assert at_cap.slacks[IDX["active_gain"]] == 0.0
        over = evaluate(make_decision(ris=make_ris(5.5, 5.0)))
        assert not over.flags[IDX["active_gain"]]
        assert math.isclose(over.slacks[IDX["active_gain"]], -0.5, rel_tol=1e-12)

    def test_harvest_threshold(self):
        # unit channels: 0.8 * 1 * 0.25 = 0.2 J harvested
        passing = evaluate(make_decision(), cfg=make_cfg(harvest_threshold_joules=0.1))
        assert passing.flags[IDX["harvest"]]
        failing = evaluate(make_decision(), cfg=make_cfg(harvest_threshold_joules=0.3))
        assert not failing.flags[IDX["harvest"]]
        assert math.isclose(failing.slacks[IDX["harvest"]], -0.1, rel_tol=1e-10)

    def test_ordering_nonincreasing_passes(self):
        dv = make_decision(i=3)
        rates_obj = constant_report(3)
        rates_obj.phase1_rate = np.array([3.0, 2.0, 1.0])
        rates_obj.phase1_order = np.array([0, 1, 2])
        report = evaluate(dv, cfg=make_cfg(i=3), ch=unit_channels(3), rates=rates_obj)
        assert report.flags[IDX["sic_order_phase1"]]
        assert math.isclose(report.slacks[IDX["sic_order_phase1"]], 1.0)

    def test_ordering_increasing_fails(self):
        dv = make_decision(i=3)
        rates_obj = constant_report(3)
        rates_obj.phase1_rate = np.array([1.0, 2.0, 3.0])
        rates_obj.phase1_order = np.array([0, 1, 2])
        report = evaluate(dv, cfg=make_cfg(i=3), ch=unit_channels(3), rates=rates_obj)
        assert not report.flags[IDX["sic_order_phase1"]]
        assert math.isclose(report.slacks[IDX["sic_order_phase1"]], -1.0)

    def test_single_user_ordering_is_vacuous(self):
        report = evaluate(make_decision())
        assert report.flags[IDX["sic_order_phase1"]]
        assert report.slacks[IDX["sic_order_phase1"]] == 0.0

    def test_zero_target_rate_constraints_hold(self):
        report = evaluate(make_decision(rate_target=0.0))
        assert report.flags[IDX["rate_target_phase1"]]
        assert report.flags[IDX["rate_target_phase2"]]

    def test_rate_target_inversion_boundary(self):
        # backscatter SINR 50 supports exactly (tau/K) log2 51; a hair less
        # passes, a hair more fails.
        cfg = make_cfg(noise_bs_watts=2.0, noise_sue_watts=NEGLIGIBLE)
        ch = unit_channels()
        exact = 0.005 * math.log2(51.0)
        passing = evaluate(
            make_decision(rate_target=exact * (1 - 1e-9), eta=1.0), cfg=cfg, ch=ch
        )
        assert passing.flags[IDX["rate_target_phase1"]]
        failing = evaluate(
            make_decision(rate_target=exact * (1 + 1e-9), eta=1.0), cfg=cfg, ch=ch
        )
        assert not failing.flags[IDX["rate_target_phase1"]]

    def test_zero_time_share_with_positive_target_is_finite_and_false(self):
        report = evaluate(make_decision(rate_target=1.0, tau=0.0))
        assert not report.flags[IDX["rate_target_phase1"]]
        assert np.isfinite(report.slacks[IDX["rate_target_phase1"]])


# ===========================================================================
# report container and reward
# ===========================================================================


class TestReportAndReward:
    def test_report_length_enforced(self):
        with pytest.raises(ValueError):
            ConstraintReport(np.ones(5, dtype=bool), np.zeros(5))

    def test_literal_reward_counts_bonuses(self):
        full = ConstraintReport(np.ones(N_CONSTRAINTS, bool), np.zeros(N_CONSTRAINTS))
        assert reward(2.0, full, mode=LITERAL) == 24.0
        none = ConstraintReport(np.zeros(N_CONSTRAINTS, bool), -np.ones(N_CONSTRAINTS))
        assert reward(2.0, none, mode=LITERAL) == 2.0

    def test_penalty_reward_charges_violations(self):
        flags = np.ones(N_CONSTRAINTS, bool)
        flags[:3] = False
        partial = ConstraintReport(flags, np.zeros(N_CONSTRAINTS))
        assert reward(2.0, partial, mode=PENALTY, violation_cost=1.0) == -1.0
        assert reward(2.0, partial, mode=PENALTY, violation_cost=0.5) == 0.5

    def test_unknown_reward_mode_rejected(self):
        full = ConstraintReport(np.ones(N_CONSTRAINTS, bool), np.zeros(N_CONSTRAINTS))
        with pytest.raises(ValueError):
            reward(1.0, full, mode="bonus")

    def test_objective_is_min_rate(self):
        rates_obj = constant_report(2)
        rates_obj.phase2_transmit_rate = np.array([0.25, 3.0])
        assert objective(rates_obj) == 0.25


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
