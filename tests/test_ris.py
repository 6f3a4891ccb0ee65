"""Tests for the reconfigurable-surface coefficient model.

Covers the element-wise surface response, the split/gain/phase invariants of
both operating modes as the constraint evaluator scores them (C1..C3), and
the energy a passive surface conserves or an active one adds.
"""

import numpy as np
import pytest

from srnoma.network import ChannelRealization, SystemConfig
from srnoma.problem import CONSTRAINT_NAMES, evaluate_constraints
from srnoma.rates import DecisionVariables, rate_report
from srnoma.ris import (
    ACTIVE,
    PASSIVE,
    RisCoefficients,
    response_vector,
)


@pytest.fixture
def cfg():
    return SystemConfig(n_bs_antennas=2, n_ris_elements=2, n_pairs=1)


def coeff(beta_t, beta_r, theta_t, theta_r, mode=ACTIVE):
    return RisCoefficients(
        beta_t=np.asarray(beta_t, dtype=float),
        beta_r=np.asarray(beta_r, dtype=float),
        theta_t=np.asarray(theta_t, dtype=float),
        theta_r=np.asarray(theta_r, dtype=float),
        mode=mode,
    )


def response_matrix(c, side):
    return np.diag(response_vector(c, side))


# ===========================================================================
# surface response values
# ===========================================================================


class TestBeamformingMatrix:
    def test_unit_gain_zero_phase_is_identity(self):
        c = coeff([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(response_matrix(c, "transmit"), np.eye(2))

    def test_gain_four_phase_pi(self):
        # sqrt(4) * exp(j*pi) = -2
        c = coeff([4.0], [1.0], [np.pi], [0.0])
        got = response_matrix(c, "transmit")
        np.testing.assert_allclose(got, np.array([[-2.0 + 0.0j]]), atol=1e-12)

    def test_mixed_phases(self):
        c = coeff([1.0, 1.0], [1.0, 1.0], [np.pi / 2, 0.0], [0.0, 0.0])
        got = response_matrix(c, "transmit")
        np.testing.assert_allclose(got, np.diag([1j, 1.0 + 0.0j]), atol=1e-12)

    def test_reflect_side_uses_reflect_coefficients(self):
        c = coeff([1.0], [9.0], [0.0], [0.0])
        got = response_matrix(c, "reflect")
        np.testing.assert_allclose(got, np.array([[3.0 + 0.0j]]))

    def test_unknown_side_rejected(self):
        c = coeff([1.0], [1.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            response_vector(c, "sideways")

    def test_negative_gain_rejected_with_reason(self):
        c = coeff([-1.0], [1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="gain"):
            response_vector(c, "transmit")


# ===========================================================================
# validation flags
# ===========================================================================


def surface_flags(c, cfg):
    """The C1..C3 verdicts (passive_split, active_gain, phase_range) of a
    decision that uses surface c."""
    n, m, i = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    ones = np.ones((n, i), dtype=complex)
    ch = ChannelRealization(ones, ones, np.ones((m, n), dtype=complex), ones,
                            np.ones((i, m), dtype=complex), np.ones((i, m), dtype=complex),
                            seed=0)
    dv = DecisionVariables(0.0, np.full(i, 0.5), np.full(i, 0.5), np.ones(i),
                           ones / np.sqrt(n), ones / np.sqrt(n), c)
    flags = evaluate_constraints(ch, dv, cfg, rate_report(ch, dv, cfg)).flags
    return dict(zip(CONSTRAINT_NAMES[:3], flags[:3]))


class TestValidate:
    def test_passive_split_exact_boundary(self, cfg):
        c = coeff([0.3, 0.5], [0.7, 0.5], [0.0, 0.0], [0.0, 0.0], mode=PASSIVE)
        flags = surface_flags(c, cfg)
        assert flags["passive_split"] and flags["active_gain"] and flags["phase_range"]
        assert all(flags.values())

    def test_passive_split_excess_fails(self, cfg):
        c = coeff([0.6, 0.5], [0.7, 0.5], [0.0, 0.0], [0.0, 0.0], mode=PASSIVE)
        assert not surface_flags(c, cfg)["passive_split"]

    def test_active_gain_cap_is_half_supply(self, cfg):
        # p_asris defaults to 10 W, so per-side amplification caps at 5.
        ok = coeff([5.0, 5.0], [5.0, 5.0], [0.0, 0.0], [0.0, 0.0])
        too_hot = coeff([5.0001, 5.0], [5.0, 5.0], [0.0, 0.0], [0.0, 0.0])
        assert surface_flags(ok, cfg)["active_gain"]
        assert not surface_flags(too_hot, cfg)["active_gain"]

    def test_active_mode_ignores_split_rule(self, cfg):
        c = coeff([5.0, 5.0], [5.0, 5.0], [0.0, 0.0], [0.0, 0.0], mode=ACTIVE)
        assert surface_flags(c, cfg)["passive_split"], "split rule must be vacuous when active"

    def test_passive_mode_ignores_gain_cap(self, cfg):
        c = coeff([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0], mode=PASSIVE)
        assert surface_flags(c, cfg)["active_gain"], "gain cap must be vacuous when passive"

    def test_phase_range_closed_interval(self, cfg):
        lo = coeff([1.0, 1.0], [1.0, 1.0], [0.0, 2 * np.pi], [0.0, 0.0])
        assert surface_flags(lo, cfg)["phase_range"]
        over = coeff([1.0, 1.0], [1.0, 1.0], [0.0, 2 * np.pi + 1e-9], [0.0, 0.0])
        assert not surface_flags(over, cfg)["phase_range"]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coeff([1.0, 1.0], [1.0], [0.0, 0.0], [0.0, 0.0])


# ===========================================================================
# energy accounting
# ===========================================================================


class TestEnergySplit:
    def test_passive_surface_conserves_energy(self):
        # |theta_t s|^2 + |theta_r s|^2 == |s|^2 whenever beta_t + beta_r == 1
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta_t = rng.uniform(0.0, 1.0, size=4)
            c = coeff(
                beta_t,
                1.0 - beta_t,
                rng.uniform(0, 2 * np.pi, size=4),
                rng.uniform(0, 2 * np.pi, size=4),
                mode=PASSIVE,
            )
            s = rng.normal(size=4) + 1j * rng.normal(size=4)
            out_t = response_matrix(c, "transmit") @ s
            out_r = response_matrix(c, "reflect") @ s
            total = np.linalg.norm(out_t) ** 2 + np.linalg.norm(out_r) ** 2
            np.testing.assert_allclose(total, np.linalg.norm(s) ** 2, rtol=1e-12)

    def test_active_surface_amplifies(self, cfg):
        half = cfg.p_asris_watts / 2.0  # the budget spread evenly over both sides
        c = coeff([half, half], [half, half], [0.0, 0.0], [0.0, 0.0])
        s = np.array([1.0 + 0j, 1.0 + 0j])
        out = response_matrix(c, "transmit") @ s
        assert np.linalg.norm(out) ** 2 > np.linalg.norm(s) ** 2, (
            "active surface must be able to add power"
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
