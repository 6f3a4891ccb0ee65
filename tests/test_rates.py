"""Tests for the two-phase rate expressions.

The scalar cases are hand-evaluated closed forms on 1x1 scenes (every factor
chosen so the arithmetic can be done on paper); the property cases check
structure (scaling, ordering, permutation equivariance) on random draws.
"""

import math

import numpy as np
import pytest

from srnoma.network import ChannelRealization, SystemConfig
from srnoma.rates import (
    DecisionVariables,
    phase1_all,
    rate_report,
    sic_order,
)
from srnoma.ris import ACTIVE, RisCoefficients

NEGLIGIBLE = 1e-30  # stands in for a zero noise term; config wants > 0


def make_cfg(n=1, m=1, i=1, **over):
    base = dict(
        n_bs_antennas=n,
        n_ris_elements=m,
        n_pairs=i,
        bandwidth_hz=1.0,
        noise_bs_watts=NEGLIGIBLE,
        noise_asris_watts=NEGLIGIBLE,
        noise_sue_watts=NEGLIGIBLE,
    )
    base.update(over)
    return SystemConfig(**base)


def make_channels(h1, g1, h2, h3, g2r, g2t):
    to_c = lambda a: np.asarray(a, dtype=complex)
    return ChannelRealization(
        to_c(h1), to_c(g1), to_c(h2), to_c(h3), to_c(g2r), to_c(g2t), seed=0
    )


def make_ris(m=1, beta_t=1.0, beta_r=1.0):
    return RisCoefficients(
        beta_t=np.full(m, beta_t),
        beta_r=np.full(m, beta_r),
        theta_t=np.zeros(m),
        theta_r=np.zeros(m),
        mode=ACTIVE,
    )


def make_decision(i=1, m=1, tau=0.5, eta=1.0, power=1.0, w1=None, w2=None, ris=None):
    if w1 is None:
        w1 = np.ones((1, i), dtype=complex)
    if w2 is None:
        w2 = np.ones((1, i), dtype=complex)
    return DecisionVariables(
        rate_target=0.0,
        eta=np.full(i, eta),
        tau=np.full(i, tau),
        power=np.full(i, power),
        w1=w1,
        w2=w2,
        ris=ris if ris is not None else make_ris(m),
    )


def random_scene(seed, n=2, m=4, i=3):
    rng = np.random.default_rng(seed)
    cplx = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    ch = make_channels(
        cplx(n, i), cplx(n, i), cplx(m, n), cplx(n, i), cplx(i, m), cplx(i, m)
    )
    w1 = cplx(n, i)
    w1 /= np.linalg.norm(w1, axis=0, keepdims=True)
    w2 = cplx(n, i)
    w2 /= np.linalg.norm(w2, axis=0, keepdims=True)
    ris = RisCoefficients(
        beta_t=rng.uniform(0.5, 2.0, m),
        beta_r=rng.uniform(0.5, 2.0, m),
        theta_t=rng.uniform(0.0, 2 * np.pi, m),
        theta_r=rng.uniform(0.0, 2 * np.pi, m),
        mode=ACTIVE,
    )
    dv = DecisionVariables(
        rate_target=0.0,
        eta=rng.uniform(0.2, 0.9, i),
        tau=rng.uniform(0.2, 0.8, i),
        power=rng.uniform(0.5, 2.0, i),
        w1=w1,
        w2=w2,
        ris=ris,
    )
    return ch, dv


# ===========================================================================
# decoding-order helper
# ===========================================================================


class TestHelpers:
    def test_sic_order_strongest_first(self):
        np.testing.assert_array_equal(sic_order(np.array([1.0, 3.0, 2.0])), [1, 2, 0])

    def test_sic_order_ties_keep_index_order(self):
        np.testing.assert_array_equal(sic_order(np.array([2.0, 2.0, 1.0])), [0, 1, 2])
        np.testing.assert_array_equal(sic_order(np.array([1.0, 2.0, 2.0])), [1, 2, 0])

    def test_sic_order_single_user(self):
        np.testing.assert_array_equal(sic_order(np.array([5.0])), [0])


# ===========================================================================
# hand-evaluated scalar oracles
# ===========================================================================


class TestScalarOracles:
    def test_backscatter_rate(self):
        # K=100, P=eta=1, unit channels => received factor 1; noise 2 W gives
        # SINR = 100/2 = 50 and rate = (tau/K) log2(51) with tau = 0.5.
        cfg = make_cfg(noise_bs_watts=2.0)
        ch = make_channels([[1]], [[1]], [[1]], [[0]], [[1]], [[1]])
        dv = make_decision()
        report = rate_report(ch, dv, cfg)
        rate, sinr = report.phase1_rate[0], report.phase1_sinr[0]
        assert math.isclose(sinr, 50.0, rel_tol=1e-12), f"sinr {sinr}"
        assert math.isclose(rate, 0.005 * math.log2(51.0), rel_tol=1e-12)
        assert math.isclose(rate, 0.028362126709857476, rel_tol=1e-12)

    def test_reflect_rate_surface_only(self):
        # unit cascade, no direct link, 1 W through unit receiver noise:
        # SINR = 1 and rate = (1 - tau) log2 2 = 0.5.
        cfg = make_cfg(noise_sue_watts=1.0)
        ch = make_channels([[1]], [[1]], [[1]], [[0]], [[1]], [[1]])
        dv = make_decision()
        report = rate_report(ch, dv, cfg)
        rate, sinr = report.phase2_reflect_rate[0], report.phase2_reflect_sinr[0]
        assert math.isclose(sinr, 1.0, rel_tol=1e-12), f"sinr {sinr}"
        assert math.isclose(rate, 0.5, rel_tol=1e-12)

    def test_reflect_rate_with_direct_link(self):
        # surface path 1 plus direct path 1 add coherently: |2|^2 = 4, so
        # SINR = 4 and rate = 0.5 log2 5.
        cfg = make_cfg(noise_sue_watts=1.0)
        ch = make_channels([[1]], [[1]], [[1]], [[1]], [[1]], [[1]])
        dv = make_decision()
        report = rate_report(ch, dv, cfg)
        rate, sinr = report.phase2_reflect_rate[0], report.phase2_reflect_sinr[0]
        assert math.isclose(sinr, 4.0, rel_tol=1e-12)
        assert math.isclose(rate, 0.5 * math.log2(5.0), rel_tol=1e-12)
        assert math.isclose(rate, 1.160964047443681, rel_tol=1e-12)

    def test_transmit_rate_with_amplification(self):
        # beta_t = 4 doubles the amplitude: |2|^2 = 4 => SINR 4; tau = 0
        # leaves the whole frame to the downlink, rate = log2 5.
        cfg = make_cfg(noise_sue_watts=1.0)
        ch = make_channels([[1]], [[1]], [[1]], [[0]], [[1]], [[1]])
        dv = make_decision(tau=0.0, ris=make_ris(beta_t=4.0))
        report = rate_report(ch, dv, cfg)
        rate, sinr = report.phase2_transmit_rate[0], report.phase2_transmit_sinr[0]
        assert math.isclose(sinr, 4.0, rel_tol=1e-12)
        assert math.isclose(rate, math.log2(5.0), rel_tol=1e-12)
        assert math.isclose(rate, 2.321928094887362, rel_tol=1e-12)

    def test_backscatter_two_users_with_interference(self):
        # strengths 4 (user 0) and 1 (user 1) at 1 W BS noise: the stronger
        # user decodes first (SINR 400) and then interferes with the weaker
        # one (SINR 100 / (4 + 1) = 20).
        cfg = make_cfg(i=2, noise_bs_watts=1.0)
        ch = make_channels(
            [[1, 1]], [[2, 1]], [[1]], [[0, 0]], [[1], [1]], [[1], [1]]
        )
        dv = make_decision(i=2, w1=np.ones((1, 2)), w2=np.ones((1, 2)))
        rates, sinrs, order = phase1_all(ch, dv, cfg)
        np.testing.assert_array_equal(order, [0, 1])
        np.testing.assert_allclose(sinrs, [400.0, 20.0], rtol=1e-12)
        np.testing.assert_allclose(
            rates, [0.005 * math.log2(401.0), 0.005 * math.log2(21.0)], rtol=1e-12
        )

    def test_downlink_two_users_cross_interference(self):
        # receiver 0 hears beam 1 through its own channel: gains |c| are
        # [[1, 1], [2, 2]], so user 1 decodes first interference-free (SINR 4)
        # and user 0 faces P_1 |c_01|^2 = 1 (SINR 1/2).
        cfg = make_cfg(i=2, noise_sue_watts=1.0)
        ch = make_channels(
            [[1, 1]], [[1, 1]], [[1]], [[0, 0]], [[1], [2]], [[1], [1]]
        )
        dv = make_decision(i=2, w1=np.ones((1, 2)), w2=np.ones((1, 2)))
        report = rate_report(ch, dv, cfg)
        np.testing.assert_array_equal(report.phase2_reflect_order, [1, 0])
        np.testing.assert_allclose(
            report.phase2_reflect_sinr, [0.5, 4.0], rtol=1e-12
        )
        np.testing.assert_allclose(
            report.phase2_reflect_rate,
            [0.5 * math.log2(1.5), 0.5 * math.log2(5.0)],
            rtol=1e-12,
        )


# ===========================================================================
# structural properties
# ===========================================================================


class TestProperties:
    def test_phase1_rate_linear_in_tau(self):
        cfg = make_cfg(n=2, m=2, i=2, noise_bs_watts=1e-12)
        ch, dv = random_scene(0, n=2, m=2, i=2)
        base = phase1_all(ch, dv, cfg)[0]
        import dataclasses

        doubled = dataclasses.replace(dv, tau=2.0 * dv.tau)
        np.testing.assert_allclose(
            phase1_all(ch, doubled, cfg)[0], 2.0 * base, rtol=1e-12,
            err_msg="backscatter rate must scale linearly with the time share",
        )

    def test_phase2_rate_linear_in_remaining_time(self):
        cfg = make_cfg(n=2, m=2, i=2, noise_sue_watts=1e-12)
        ch, dv = random_scene(1, n=2, m=2, i=2)
        import dataclasses

        half = dataclasses.replace(dv, tau=np.full(2, 0.5))
        quarter = dataclasses.replace(dv, tau=np.full(2, 0.75))
        r_half = rate_report(ch, half, cfg).phase2_reflect_rate
        r_quarter = rate_report(ch, quarter, cfg).phase2_reflect_rate
        np.testing.assert_allclose(r_quarter, 0.5 * r_half, rtol=1e-12)

    def test_interference_free_top_user(self):
        # whoever decodes first sees only thermal noise
        cfg = make_cfg(n=2, m=2, i=3, noise_bs_watts=1e-12)
        ch, dv = random_scene(2, n=2, m=2, i=3)
        rates, sinrs, order = phase1_all(ch, dv, cfg)
        top = order[0]
        g_norm2 = np.sum(np.abs(ch.g1[:, top]) ** 2)
        beam = np.abs(ch.h1[:, top].conj() @ dv.w1[:, top]) ** 2
        strength = dv.power[top] * dv.eta[top] * g_norm2 * beam
        expected = 100.0 * strength / (cfg.bandwidth_hz * cfg.noise_bs_watts)
        np.testing.assert_allclose(sinrs[top], expected, rtol=1e-12)

    def test_own_power_monotone_for_top_user(self):
        # raising the strongest user's power cannot lower its own SINR
        cfg = make_cfg(n=2, m=2, i=2, noise_bs_watts=1e-9)
        ch, dv = random_scene(3, n=2, m=2, i=2)
        _, sinrs, order = phase1_all(ch, dv, cfg)
        top = order[0]
        import dataclasses

        power = dv.power.copy()
        power[top] *= 4.0
        boosted = dataclasses.replace(dv, power=power)
        _, sinrs2, _ = phase1_all(ch, boosted, cfg)
        assert sinrs2[top] > sinrs[top]

    def test_user_permutation_consistency(self):
        # relabeling users permutes the per-user outputs accordingly
        cfg = make_cfg(n=2, m=3, i=3, noise_bs_watts=1e-9, noise_sue_watts=1e-9)
        ch, dv = random_scene(4, n=2, m=3, i=3)
        perm = np.array([2, 0, 1])
        ch_p = make_channels(
            ch.h1[:, perm], ch.g1[:, perm], ch.h2, ch.h3[:, perm],
            ch.g2r[perm], ch.g2t[perm],
        )
        import dataclasses

        dv_p = dataclasses.replace(
            dv, eta=dv.eta[perm], tau=dv.tau[perm], power=dv.power[perm],
            w1=dv.w1[:, perm], w2=dv.w2[:, perm],
        )
        a = rate_report(ch, dv, cfg)
        b = rate_report(ch_p, dv_p, cfg)
        np.testing.assert_allclose(b.phase1_rate, a.phase1_rate[perm], rtol=1e-12)
        np.testing.assert_allclose(
            b.phase2_reflect_rate, a.phase2_reflect_rate[perm], rtol=1e-12
        )
        np.testing.assert_allclose(
            b.phase2_transmit_rate, a.phase2_transmit_rate[perm], rtol=1e-12
        )
        assert math.isclose(float(a.min_rates), float(b.min_rates), rel_tol=1e-12)
        assert math.isclose(float(a.sum_rates), float(b.sum_rates), rel_tol=1e-12)

    def test_surface_noise_grows_with_reflect_gain(self):
        # with the BS -> surface link cut, the surface adds only its own
        # amplified noise to the reflect users: the direct-path signal stays,
        # and a higher reflect gain can only lower the SINR
        cfg = make_cfg(m=2, noise_asris_watts=1e-12)
        ch, dv = random_scene(5, n=1, m=2, i=1)
        ch.h2 = np.zeros_like(ch.h2)
        import dataclasses

        low = dataclasses.replace(dv, ris=make_ris(m=2, beta_r=1.0))
        high = dataclasses.replace(dv, ris=make_ris(m=2, beta_r=4.0))
        sinr_low = rate_report(ch, low, cfg).phase2_reflect_sinr
        sinr_high = rate_report(ch, high, cfg).phase2_reflect_sinr
        assert np.all(sinr_high < sinr_low)

    def test_report_min_and_sum(self):
        cfg = make_cfg(n=2, m=2, i=2, noise_bs_watts=1e-9, noise_sue_watts=1e-9)
        ch, dv = random_scene(6, n=2, m=2, i=2)
        report = rate_report(ch, dv, cfg)
        stacked = np.concatenate(
            [report.phase1_rate, report.phase2_reflect_rate, report.phase2_transmit_rate]
        )
        assert math.isclose(float(report.min_rates), stacked.min(), rel_tol=1e-12)
        assert math.isclose(float(report.sum_rates), stacked.sum(), rel_tol=1e-12)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
