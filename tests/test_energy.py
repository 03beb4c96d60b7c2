import math

import pytest

from flowcurv import (
    H_polynomial,
    Polynomial,
    State,
    classify_case,
    jet,
    make_system,
)
from flowcurv.energy import H_rate, energy_rate, total_energy

from conftest import propagate, sweep_states

S_REF = State(0.0, 2.0, 0.65)


def quadratic_potential_system(c1: float, c2: float):
    """System with g = c1*(x + c2) and matching shifted potential."""
    g = Polynomial([c1 * c2, c1])
    G = Polynomial([c1 * c2 * c2 / 2.0, c1 * c2, c1 / 2.0])
    return make_system([0, -1, 0, 1 / 3], g, 0.05, G=G)


class TestTotalEnergy:
    def test_reference_point(self, vdp):
        assert jet(vdp, S_REF).E == pytest.approx(2.0027777778, rel=1e-9)

    def test_kinetic_term_vanishes_on_critical_manifold(self, vdp):
        for x in (0.5, 1.3, 2.2):
            s = State(0.0, x, vdp.F(x))
            assert jet(vdp, s).E == pytest.approx(vdp.G(x), rel=1e-12)

    def test_quintic_on_manifold(self):
        sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
        s = State(0.0, 1.0, sys_.F(1.0))
        assert jet(sys_, s).E == pytest.approx(7 / 12, rel=1e-10)


class TestEnergyRate:
    def test_reference_point(self, vdp):
        assert jet(vdp, S_REF).dEdt == pytest.approx(-1 / 3, rel=1e-9)

    def test_absorbing_inside_f_negative_strip(self, vdp):
        s = State(0.0, 0.5, vdp.F(0.5) + 0.1)  # |x| < 1, xdot != 0
        assert jet(vdp, s).dEdt > 0.0

    def test_zero_velocity(self, vdp):
        s = State(0.0, 1.7, vdp.F(1.7))
        assert jet(vdp, s).dEdt == 0.0


class TestHPolynomial:
    def test_vdp_is_exactly_zero(self, vdp):
        assert H_polynomial(vdp).is_zero

    def test_quintic_closed_form(self, llibre_mereu):
        H = H_polynomial(llibre_mereu)
        expected = [0.0, 0.0, 0.0, 0.0, -0.5, 0.0, -1 / 18]
        assert len(H.coeffs) == 7
        for got, want in zip(H.coeffs, expected):
            assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("c1", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c2", [-1.0, 0.0, 1.0])
    def test_quadratic_potential_family_is_zero(self, c1, c2):
        assert H_polynomial(quadratic_potential_system(c1, c2)).is_zero


class TestHRate:
    def test_vdp_zero_everywhere(self, vdp):
        for s in sweep_states(50):
            assert jet(vdp, s).dHdt == 0.0

    def test_quintic_reference(self):
        sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
        s = State(0.0, 1.0, sys_.F(1.0) - 0.1)  # xdot = -1
        dHdt = jet(sys_, s).dHdt
        assert dHdt == pytest.approx(7 / 3, rel=1e-9)
        assert dHdt >= 0.0

    def test_matches_chain_rule_on_H_polynomial(self, llibre_mereu):
        Hp = H_polynomial(llibre_mereu).derivative()
        for s in sweep_states(200):
            xdot = (s.y - llibre_mereu.F(s.x)) / llibre_mereu.eps
            expected = Hp(s.x) * xdot
            got = jet(llibre_mereu, s).dHdt
            assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    def test_matches_finite_difference_along_flow(self, llibre_mereu):
        Hp = H_polynomial(llibre_mereu)
        s0 = State(0.0, 1.5, llibre_mereu.F(1.5) - 0.05)
        h = 1e-6
        x1, y1 = propagate(llibre_mereu, s0.x, s0.y, h, n_sub=10)
        x2, y2 = propagate(llibre_mereu, x1, y1, h, n_sub=10)
        fd = (Hp(x2) - Hp(s0.x)) / (2 * h)
        assert fd == pytest.approx(jet(llibre_mereu, State(0.0, x1, y1)).dHdt, rel=1e-4)


class TestClassifyCase:
    def test_vdp_case1_boundary(self, vdp):
        cls = classify_case(vdp)
        assert cls.case_label == "CASE1_H_NONNEG"
        assert cls.H_poly.is_zero
        assert cls.c1_witness == pytest.approx(1.0, rel=1e-12)

    def test_quintic_case2(self, llibre_mereu):
        cls = classify_case(llibre_mereu)
        assert cls.case_label == "CASE2_H_NONPOS"
        assert cls.c1_witness == pytest.approx(1.0, rel=1e-12)
        assert cls.Gppp_sign == "NONNEG"

    def test_no_linear_bound_witness_without_g_of_zero_zero(self):
        # g = x + 1/2 has g(0) != 0, so g(x)/x is no polynomial: no witness;
        # H = (x + 1/2)**2 - 2*(x**2/2 + x/2) = 1/4
        cls = classify_case(make_system([0, -1, 0, 1 / 3], [0.5, 1], 0.05))
        assert cls.case_label == "CASE1_H_NONNEG"
        assert cls.H_poly == Polynomial([0.25])
        assert cls.c1_witness is None

    def test_superlinear_cubic_is_case2(self):
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1, 0, 1], 0.05)  # g = x + x^3
        assert classify_case(sys_).case_label == "CASE2_H_NONPOS"

    def test_sublinear_g_mixed_on_wide_window(self):
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1, 0, -1 / 20], 0.05)
        assert classify_case(sys_, x_max=10.0).case_label == "MIXED"
        assert classify_case(sys_, x_max=5.0).case_label == "CASE1_H_NONNEG"

    @pytest.mark.parametrize("system, sign", [
        ("vdp", "NONPOS"),  # g'' is identically zero: the side that keeps dH/dt <= 0
        ("llibre_mereu", "NONNEG"),  # g'' = 2x
        ([0, 1, 0, -1 / 10], "NONPOS"),  # g'' = -3x/5
        ([0, 1, 0, -1, 0, 1 / 10], "MIXED"),  # g'' = 2x^3 - 6x changes sign at sqrt(3)
    ], ids=["vdp", "llibre_mereu", "cubic", "quintic"])
    def test_every_gppp_sign(self, system, sign, request):
        sys_ = (request.getfixturevalue(system) if isinstance(system, str)
                else make_system([0, -1, 0, 1 / 3], system, 0.05))
        assert classify_case(sys_, x_max=10.0).Gppp_sign == sign


class TestCurvatureEnergyRelation:
    def test_reference_point(self, vdp):
        j = jet(vdp, S_REF)
        r = j.curvature_energy_residual
        assert abs(r) <= 1e-9 * max(1.0, abs(vdp.eps * j.phi))
        # both sides independently
        assert vdp.eps * j.phi == pytest.approx(2.0055555556, rel=1e-9)

    def test_equilibrium(self, vdp):
        assert jet(vdp, State(0.0, 0.0, 0.0)).curvature_energy_residual == 0.0

    def test_sweep_both_systems(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(1000):
                j = jet(sys_, s)
                r = j.curvature_energy_residual
                assert abs(r) <= 1e-9 * max(1.0, abs(sys_.eps * j.phi))


class TestRelationRate:
    def test_reference_point_closed_forms(self, vdp):
        s = S_REF
        xdot = (s.y - vdp.F(s.x)) / vdp.eps
        lhs = 2.0 * vdp.gp(s.x) * jet(vdp, s).dEdt  # g'' = 0, dH/dt = 0
        assert lhs == pytest.approx(-2 / 3, rel=1e-9)
        assert jet(vdp, s).relation_rate_residual == pytest.approx(0.0, abs=1e-12)
        assert xdot == pytest.approx(-1 / 3, rel=1e-9)

    def test_zero_velocity(self, vdp):
        s = State(0.0, 1.4, vdp.F(1.4))
        assert jet(vdp, s).relation_rate_residual == pytest.approx(0.0, abs=1e-13)

    def test_overflowing_cube_is_a_float(self, vdp, llibre_mereu):
        # xdot**3 overflows at these finite states (xdot = -4e110 and
        # -6.7e108): the row's cube is a product, which overflows to inf
        # like every other field, where a float power would raise
        j = jet(llibre_mereu, State(0.0, 1e22, 0.0))
        assert j.xdot == pytest.approx(-4e110) and math.isnan(j.relation_rate_residual)
        j = jet(vdp, State(0.0, 1e36, 0.0))  # g'' = 0: the cube's term is 0
        assert vdp.eps == 0.05 and j.relation_rate_residual == 0.0

    def test_sweep_both_systems(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(1000):
                x = s.x
                xdot = (s.y - sys_.F(x)) / sys_.eps
                rhs = (2.0 * sys_.f(x) * xdot * (-sys_.gp(x) * xdot)
                       + sys_.eps * sys_.gpp(x) * xdot**3)
                r = jet(sys_, s).relation_rate_residual
                assert abs(r) <= 1e-9 * max(1.0, abs(rhs))


class TestAppendixIdentity:
    def test_reference_point(self, vdp):
        r = jet(vdp, S_REF).appendix_residual
        assert r == pytest.approx(0.0, abs=1e-12)
        # left side value for the record
        xdot, ydot = (-1 / 3, -2.0)
        assert S_REF.y * ydot + vdp.eps * vdp.g(S_REF.x) * xdot == pytest.approx(
            -4 / 3, rel=1e-9
        )

    def test_equilibrium(self, vdp):
        assert jet(vdp, State(0.0, 0.0, 0.0)).appendix_residual == 0.0

    def test_sweep_both_systems(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(1000):
                r = jet(sys_, s).appendix_residual
                scale = max(1.0, abs(sys_.F(s.x) * sys_.g(s.x)))
                assert abs(r) <= 1e-9 * scale

    def test_energy_form_equivalence_chain(self, both_systems):
        # y*ydot + eps*G'(x)*xdot - F(x)*ydot = eps*(dE/dt + f*xdot**2), whose
        # right side is identically zero: the appendix identity itself.
        for sys_ in both_systems:
            for s in sweep_states(300):
                j = jet(sys_, s)
                r = j.appendix_residual
                assert abs(r) <= 1e-10 * max(1.0, abs(j.E))


class TestEnergySample:
    def test_fields_consistent(self, llibre_mereu):
        # total_energy, energy_rate and H_rate are the point evaluations the
        # benchmark's tracer counts: each returns its jet field
        j = jet(llibre_mereu, S_REF)
        assert j.E == total_energy(llibre_mereu, S_REF)
        assert j.dEdt == energy_rate(llibre_mereu, S_REF)
        assert j.dHdt == H_rate(llibre_mereu, S_REF)
        # The jet forms H = g**2 - 2*G*g' from point values; H_polynomial
        # expands it symbolically, so the two agree to rounding of g**2.
        Hp = H_polynomial(llibre_mereu)
        for s in [S_REF] + sweep_states(200):
            g = llibre_mereu.g(s.x)
            assert jet(llibre_mereu, s).H == pytest.approx(Hp(s.x), abs=1e-14 * max(1.0, g * g))
