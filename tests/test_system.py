import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import (
    LienardSystem,
    Polynomial,
    State,
    check_assumptions,
    jacobian,
    jacobian_rate,
    make_system,
    vector_field,
)


class TestMakeSystem:
    def test_vdp_derived_family(self, vdp):
        assert vdp.f.coeffs == pytest.approx((-1.0, 0.0, 1.0))
        assert vdp.G.coeffs == pytest.approx((0.0, 0.0, 0.5))
        assert vdp.gp.coeffs == (1.0,)
        assert vdp.gpp.is_zero

    def test_quintic_derived_family(self, llibre_mereu):
        assert llibre_mereu.f.coeffs == pytest.approx((-1.0, 0.0, 1.0, 0.0, 1.0))
        assert llibre_mereu.gp.coeffs == pytest.approx((1.0, 0.0, 1.0))
        assert llibre_mereu.G.coeffs == pytest.approx((0.0, 0.0, 0.5, 0.0, 1 / 12))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            make_system([0, -1, 0, 1 / 3], [0, 1], 0.0)

    def test_inconsistent_fields_rejected(self, vdp):
        with pytest.raises(ValueError, match="f must equal"):
            LienardSystem(
                eps=0.05, F=vdp.F, f=Polynomial([1.0]), fp=vdp.fp,
                g=vdp.g, G=vdp.G, gp=vdp.gp, gpp=vdp.gpp,
            )

    def test_custom_antiderivative_constant_allowed(self):
        G = Polynomial([0.5, 1.0, 0.5])  # (x + 1)^2 / 2
        sys_ = make_system([0, -1, 0, 1 / 3], [1, 1], 0.05, G=G)
        assert sys_.G == G

    def test_custom_G_must_match_g(self):
        with pytest.raises(ValueError, match="antiderivative"):
            make_system([0, -1, 0, 1 / 3], [0, 1], 0.05, G=Polynomial([0, 0, 1.0]))


class TestVectorField:
    def test_point_off_manifold(self, vdp):
        xd, yd = vector_field(vdp, State(0.0, 2.0, 0.65))
        assert xd == pytest.approx(-1 / 3, rel=1e-10)
        assert yd == -2.0

    def test_x_component_vanishes_on_critical_manifold(self, vdp):
        for x in (-2.0, 0.3, 1.7):
            xd, _ = vector_field(vdp, State(0.0, x, vdp.F(x)))
            assert abs(xd) <= 1e-13 / vdp.eps

    def test_on_axis(self, vdp):
        xd, yd = vector_field(vdp, State(0.0, 0.0, 1.0))
        assert xd == pytest.approx(20.0)
        assert yd == 0.0


class TestJacobian:
    def test_vdp_entries(self, vdp):
        J = np.array(jacobian(vdp, 2.0))
        assert J == pytest.approx(np.array([[-60.0, 20.0], [-1.0, 0.0]]), rel=1e-10)
        assert np.trace(J) == pytest.approx(-60.0, rel=1e-10)

    def test_trace_vanishes_at_f_zero(self, vdp):
        assert np.trace(jacobian(vdp, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_quintic_entries(self):
        sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
        J = np.array(jacobian(sys_, 1.0))
        assert J == pytest.approx(np.array([[-10.0, 10.0], [-2.0, 0.0]]), rel=1e-10)

    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=100)
    def test_trace_closed_form(self, x):
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1], 0.05)
        J = jacobian(sys_, x)
        assert J[0][0] + J[1][1] == -sys_.f(x) / sys_.eps


class TestJacobianRate:
    def test_vdp_entries(self, vdp):
        s = State(0.0, 2.0, 0.65)  # xdot = -1/3
        dJ = np.array(jacobian_rate(vdp, s))
        assert dJ == pytest.approx(np.array([[80 / 3, 0.0], [0.0, 0.0]]), rel=1e-9)

    def test_zero_at_zero_velocity(self, vdp):
        s = State(0.0, 1.3, vdp.F(1.3))
        assert np.array(jacobian_rate(vdp, s)) == pytest.approx(np.zeros((2, 2)), abs=1e-12)

    def test_quintic_entries(self):
        sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
        y = sys_.F(1.0) + 0.1 * (-1.0)  # xdot = -1
        dJ = np.array(jacobian_rate(sys_, State(0.0, 1.0, y)))
        assert dJ == pytest.approx(np.array([[60.0, 0.0], [2.0, 0.0]]), rel=1e-9)

    def test_matches_finite_difference_along_flow(self, vdp):
        from flowcurv.dynamics import _make_rhs, _propagate

        s = State(0.0, 2.0, 0.65)
        h = 1e-5
        rhs = _make_rhs(vdp)
        rhs_back = lambda x, y: tuple(-v for v in rhs(x, y))
        xp, _ = _propagate(rhs, s.x, s.y, h, n_sub=10)
        xm, _ = _propagate(rhs_back, s.x, s.y, h, n_sub=10)
        fd = (np.array(jacobian(vdp, xp)) - np.array(jacobian(vdp, xm))) / (2 * h)
        dJ = np.array(jacobian_rate(vdp, s))
        assert fd == pytest.approx(dJ, abs=1e-6 * max(1.0, np.abs(dJ).max()))


class TestAssumptions:
    def test_vdp_all_hold(self, vdp):
        rep = check_assumptions(vdp)
        assert rep.all_hold
        assert rep.positive_zero_a == pytest.approx(math.sqrt(3), abs=1e-9)
        assert rep.gprime_nonneg.holds

    def test_quintic_all_hold(self, llibre_mereu):
        rep = check_assumptions(llibre_mereu)
        assert rep.all_hold
        assert rep.positive_zero_a == pytest.approx(1.2461822407708776, abs=1e-9)
        assert rep.gprime_nonneg.holds

    def test_even_g_fails_parity(self):
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 0, 1], 0.05)  # g = x^2
        rep = check_assumptions(sys_)
        assert not rep.assumption_I.holds
        assert "odd" in rep.assumption_I.detail

    def test_lipschitz_witness_reported(self, llibre_mereu):
        rep = check_assumptions(llibre_mereu, x_max=10.0)
        assert rep.assumption_II.holds
        assert rep.assumption_II.witness == pytest.approx(101.0, rel=1e-9)  # max |x^2+1|

    def test_unbounded_f_negative_region_fails_IV(self):
        # F = x^3/3 - x is monotone only beyond sqrt(3); F = -x^3/3 + x fails III
        sys_ = make_system([0, 1, 0, -1 / 3], [0, 1], 0.05)
        rep = check_assumptions(sys_)
        assert not rep.assumption_III.holds


class TestCriticalManifold:
    # The critical manifold is the graph y = F(x).
    def test_values(self, vdp, llibre_mereu):
        assert vdp.F(2.0) == pytest.approx(2 / 3, rel=1e-10)
        assert vdp.F(0.0) == 0.0
        assert llibre_mereu.F(1.0) == pytest.approx(-7 / 15, rel=1e-10)
