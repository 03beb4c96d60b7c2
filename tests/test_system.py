import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import LienardSystem, Polynomial, State, check_assumptions, jet, make_system
from flowcurv.system import positive_zeros_of_F, specialized

from conftest import jacobian, jacobian_rate, propagate, system_from_config


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
        with pytest.raises(ValueError, match="eps must be positive"):
            make_system([0, -1, 0, 1 / 3], [0, 1], 0.0)

    @pytest.mark.parametrize("eps", [True, math.inf, 10**400], ids=["bool", "inf", "huge_int"])
    def test_bool_and_infinite_eps_rejected(self, eps):
        # True would pass as eps = 1.0, inf would fail later as a "blow-up",
        # and an int beyond float range would overflow converting to float
        with pytest.raises(ValueError, match="eps must be a finite number"):
            make_system([0, -1, 0, 1 / 3], [0, 1], eps)

    def test_constructor_derives_the_family(self, llibre_mereu):
        sys_ = LienardSystem(0.05, llibre_mereu.F, llibre_mereu.g, llibre_mereu.G)
        assert sys_ == llibre_mereu and tuple(sys_) == (0.05, sys_.F, sys_.g, sys_.G)
        assert sys_.f == sys_.F.derivative() and sys_.fp == sys_.f.derivative()
        assert sys_.gp == sys_.g.derivative() and sys_.gpp == sys_.gp.derivative()

    def test_custom_antiderivative_constant_allowed(self):
        G = Polynomial([0.5, 1.0, 0.5])  # (x + 1)^2 / 2
        sys_ = make_system([0, -1, 0, 1 / 3], [1, 1], 0.05, G=G)
        assert sys_.G == G

    def test_antiderivative_check_is_exact(self):
        # 6 * (0.21 / 6) rounds to 0.20999999999999996 in floats
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1, 0, 0, 0, 0.21], 0.05)
        assert sys_.G.derivative() == sys_.g

    def test_custom_G_must_match_g(self):
        with pytest.raises(ValueError, match="antiderivative"):
            make_system([0, -1, 0, 1 / 3], [0, 1], 0.05, G=Polynomial([0, 0, 1.0]))


class TestVectorField:
    def test_point_off_manifold(self, vdp):
        j = jet(vdp, State(0.0, 2.0, 0.65))
        assert j.xdot == pytest.approx(-1 / 3, rel=1e-10)
        assert j.ydot == -2.0

    def test_x_component_vanishes_on_critical_manifold(self, vdp):
        for x in (-2.0, 0.3, 1.7):
            assert abs(jet(vdp, State(0.0, x, vdp.F(x))).xdot) <= 1e-13 / vdp.eps

    def test_on_axis(self, vdp):
        j = jet(vdp, State(0.0, 0.0, 1.0))
        assert j.xdot == pytest.approx(20.0)
        assert j.ydot == 0.0


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
        s = State(0.0, 2.0, 0.65)
        h = 1e-5
        xp, _ = propagate(vdp, s.x, s.y, h, n_sub=10)
        xm, _ = propagate(vdp, s.x, s.y, -h, n_sub=10)
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

    def test_zero_g_fails_I(self):
        rep = check_assumptions(make_system([0, -1, 0, 1 / 3], [0.0], 0.05))
        assert not rep.assumption_I.holds
        assert "g is identically zero" in rep.assumption_I.detail

    def test_lipschitz_witness_reported(self, llibre_mereu):
        rep = check_assumptions(llibre_mereu, x_max=10.0)
        assert rep.assumption_II.holds
        assert rep.assumption_II.witness == pytest.approx(101.0, rel=1e-9)  # max |x^2+1|

    def test_unbounded_f_negative_region_fails_IV(self):
        # F = x^3/3 - x is monotone only beyond sqrt(3); F = -x^3/3 + x fails III
        sys_ = make_system([0, 1, 0, -1 / 3], [0, 1], 0.05)
        rep = check_assumptions(sys_)
        assert not rep.assumption_III.holds


    def test_zero_F_fails_III_and_IV(self):
        rep = check_assumptions(make_system([0.0], [0, 1], 0.05))
        assert not rep.assumption_III.holds and rep.assumption_III.witness == 0.0
        assert not rep.assumption_IV.holds and rep.positive_zero_a is None
        assert rep.assumption_IV.detail == "F is identically zero"
        assert positive_zeros_of_F(make_system([0.0], [0, 1], 0.05)) == []

    def test_two_positive_zeros_fail_IV(self):
        # F = x^5 - 3x^3 + 2x = x(x^2 - 1)(x^2 - 2): zeros 1 and sqrt(2)
        rep = check_assumptions(make_system([0, 2, 0, -3, 0, 1], [0, 1], 0.05))
        assert not rep.assumption_IV.holds and rep.positive_zero_a is None
        assert rep.assumption_IV.detail == "F has 2 positive zeros in (0, 10.0]"

    def test_gprime_flag_is_exact_at_a_touching_zero(self):
        # g = x^3: g' = 3x^2 >= 0 touches 0 at x = 0
        rep = check_assumptions(make_system([0, -1, 0, 1 / 3], [0, 0, 0, 1.0], 0.05))
        assert rep.gprime_nonneg.holds and rep.gprime_nonneg.witness == 0.0
        # g = x^3 - x: g' = 3x^2 - 1 < 0 near 0, and x*g < 0 on (0, 1)
        rep = check_assumptions(make_system([0, -1, 0, 1 / 3], [0, -1.0, 0, 1.0], 0.05))
        assert not rep.gprime_nonneg.holds
        assert "x*g(x) <= 0" in rep.assumption_I.detail

    def test_monotone_beyond_the_zero(self):
        # F = x^3 - x - 6: single positive zero a = 2, f = 3x^2 - 1 > 0 beyond
        rep = check_assumptions(make_system([-6, -1, 0, 1.0], [0, 1], 0.05))
        assert rep.assumption_IV.holds and rep.positive_zero_a == 2.0
        # F = (x-1)((x-3)^2 + 1): single zero a = 1, f < 0 on (2, 8/3)
        rep = check_assumptions(make_system([-10, 16, -7, 1.0], [0, 1], 0.05))
        assert not rep.assumption_IV.holds and rep.positive_zero_a == 1.0
        assert "not monotone" in rep.assumption_IV.detail

    def test_monotone_where_f_touches_zero_beyond_the_zero(self):
        # F = (x-2)^3 + 1: single zero a = 1, f = 3(x-2)^2 >= 0 vanishes only
        # at x = 2, so F is strictly increasing beyond a
        rep = check_assumptions(make_system([-7, 12, -6, 1.0], [0, 1], 0.05))
        assert rep.assumption_IV.holds and rep.positive_zero_a == 1.0
        assert "monotone increasing beyond it" in rep.assumption_IV.detail
        # F = (x-2)^3 - 0.1(x-2) + 1: single zero a ~ 0.967, f = 3(x-2)^2 - 0.1
        # dips below 0 on (2 - 0.183, 2 + 0.183)
        rep = check_assumptions(make_system([-6.8, 11.9, -6, 1.0], [0, 1], 0.05))
        assert not rep.assumption_IV.holds
        assert rep.positive_zero_a == pytest.approx(0.96668, abs=1e-5)
        assert "not monotone" in rep.assumption_IV.detail

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_polynomial_evaluations_per_check(self, name, monkeypatch):
        # The exact root core evaluates no Polynomial; what remains are the
        # extreme-value witnesses.  The former grid scan made 4,233 (vdp) and
        # 12,503 (llibre_mereu) evaluations per check_assumptions call.
        from flowcurv import classify_case

        calls = [0]
        orig = Polynomial.__call__

        def counted(self, x):
            calls[0] += 1
            return orig(self, x)

        monkeypatch.setattr(Polynomial, "__call__", counted)
        sys_ = system_from_config(name)
        check_assumptions(sys_)
        assert calls[0] <= 100
        calls[0] = 0
        classify_case(sys_)
        assert calls[0] <= 100


class TestCriticalManifold:
    # The critical manifold is the graph y = F(x).
    def test_values(self, vdp, llibre_mereu):
        assert vdp.F(2.0) == pytest.approx(2 / 3, rel=1e-10)
        assert vdp.F(0.0) == 0.0
        assert llibre_mereu.F(1.0) == pytest.approx(-7 / 15, rel=1e-10)


class TestSpecialized:
    # The binder expands a call P(v) where P stands alone as a word; a name
    # that merely ends in a polynomial's name is the body's own and is kept.
    BODY = [
        "return (gpp(x) + gp(x) + g(x), -F(x), 2.0*f(v), (gpp(v)), [fp(x)][0],",
        "        {0: G(v)}[0], xF(x), dg(v))"]

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_calls_expand_bitwise_and_other_names_stay(self, name):
        # an unexpanded polynomial call would raise NameError: the body's
        # namespace holds no polynomial
        s = system_from_config(name)
        fn = specialized("fn(x, v, xF, dg)", lambda: self.BODY, "adversarial")(s)
        for x, v in [(0.7, -1.3), (2.5, 1e-3), (-3.0, 40.0)]:
            got = fn(x, v, lambda t: ("xF", t), lambda t: ("dg", t))
            want = (s.gpp(x) + s.gp(x) + s.g(x), -s.F(x), 2.0 * s.f(v), s.gpp(v), s.fp(x),
                    s.G(v), ("xF", x), ("dg", v))
            assert [a.hex() for a in got[:6]] == [b.hex() for b in want[:6]]
            assert got[6:] == want[6:]
