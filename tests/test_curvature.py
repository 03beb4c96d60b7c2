import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import State, jet, make_system, slow_branches
from flowcurv.curvature import MANIFOLD_CSV_HEADER, format_manifold_csv

from conftest import jacobian, jacobian_rate, propagate, sweep_states, traced_peak

S_REF = State(0.0, 2.0, 0.65)


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def jet_derivatives(sys_, s):
    """The jet's first, second and third time derivatives of (x, y)."""
    j = jet(sys_, s)
    return j.xdot, j.ydot, j.xddot, j.yddot, j.xdddot, j.ydddot


class TestFlowDerivatives:
    def test_reference_point(self, vdp):
        xd, yd, xdd, ydd, xddd, yddd = jet_derivatives(vdp, S_REF)
        assert xd == pytest.approx(-1 / 3, rel=1e-9)
        assert yd == -2.0
        assert xdd == pytest.approx(-20.0, rel=1e-9)
        assert ydd == pytest.approx(1 / 3, rel=1e-9)
        assert xddd == pytest.approx(1197.7777777, rel=1e-6)
        assert yddd == pytest.approx(20.0, rel=1e-9)

    def test_on_critical_manifold(self, vdp):
        s = State(0.0, 1.4, vdp.F(1.4))
        xd, _, _, ydd, _, _ = jet_derivatives(vdp, s)
        assert xd == pytest.approx(0.0, abs=1e-14)
        assert ydd == pytest.approx(0.0, abs=1e-13)

    def test_quintic_point(self):
        sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
        xd, yd, _, ydd, _, _ = jet_derivatives(sys_, State(0.0, 1.0, -0.4))
        assert xd == pytest.approx(2 / 3, rel=1e-9)
        assert yd == pytest.approx(-4 / 3, rel=1e-12)
        assert ydd == pytest.approx(-4 / 3, rel=1e-9)

    def test_sample_velocity_matches_vector_field(self, vdp):
        j = jet(vdp, S_REF)
        assert (j.xdot, j.ydot) == ((S_REF.y - vdp.F(S_REF.x)) / vdp.eps, -vdp.g(S_REF.x))

    def test_third_derivative_matches_matrix_form(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(200):
                xd, yd, xdd, ydd, xddd, yddd = jet_derivatives(sys_, s)
                vec = (np.array(jacobian(sys_, s.x)) @ np.array([xdd, ydd])
                       + np.array(jacobian_rate(sys_, s)) @ np.array([xd, yd]))
                scale = max(1.0, abs(sys_.gpp(s.x) * xd * xd) + abs(sys_.gp(s.x) * xdd))
                assert yddd == pytest.approx(vec[1], abs=1e-11 * scale)
                scale_x = max(1.0, abs(vec[0]))
                assert xddd == pytest.approx(vec[0], abs=1e-11 * scale_x)


class TestPhi:
    def test_reference_point(self, vdp):
        assert jet(vdp, S_REF).phi == pytest.approx(40.111111111, rel=1e-9)

    def test_equilibrium_gives_zero(self, vdp):
        assert jet(vdp, State(0.0, 0.0, 0.0)).phi == 0.0

    def test_below_manifold_negative(self, vdp):
        assert jet(vdp, State(0.0, 2.0, 0.6)).phi == pytest.approx(-78.22222222, rel=1e-9)

    def test_determinant_and_expanded_forms_agree(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(1000):
                xd, yd, xdd, ydd, _, _ = jet_derivatives(sys_, s)
                determinant = xdd * yd - ydd * xd
                # phi's expanded form rounds identically: -(-a*b)*b == (a*b)*b
                assert jet(sys_, s).phi == determinant


class TestPhiDot:
    def test_zero_velocity_state(self, vdp):
        assert jet(vdp, State(0.0, 0.0, 0.0)).phi_dot == 0.0

    @pytest.mark.parametrize(
        "config, state",
        [
            ("vdp", S_REF),
            ("quintic", State(0.0, 1.5, None)),  # y filled below
        ],
    )
    def test_finite_difference_oracle(self, config, state, vdp):
        if config == "vdp":
            sys_ = vdp
            s0 = state
        else:
            sys_ = make_system([0, -1, 0, 1 / 3, 0, 1 / 5], [0, 1, 0, 1 / 3], 0.1)
            s0 = State(0.0, 1.5, sys_.F(1.5) - 0.05)
        h = 1e-6
        x1, y1 = propagate(sys_, s0.x, s0.y, h, n_sub=10)
        x2, y2 = propagate(sys_, x1, y1, h, n_sub=10)
        fd = (jet(sys_, State(0.0, x2, y2)).phi - jet(sys_, s0).phi) / (2 * h)
        mid = jet(sys_, State(0.0, x1, y1)).phi_dot
        assert fd == pytest.approx(mid, rel=1e-4)

    def test_matches_expanded_form(self, both_systems):
        for sys_ in both_systems:
            for s in sweep_states(300):
                xd, yd, xdd, ydd, xddd, yddd = jet_derivatives(sys_, s)
                expanded = xddd * yd + xd * (sys_.gpp(s.x) * xd * xd + sys_.gp(s.x) * xdd)
                got = jet(sys_, s).phi_dot
                scale = max(1.0, abs(xddd * yd) + abs(yddd * xd))
                assert got == pytest.approx(expanded, abs=1e-10 * scale)


class TestLieIdentity:
    def test_reference_point(self, vdp):
        j = jet(vdp, S_REF)
        assert abs(j.lie_residual) <= 1e-9 * max(1.0, abs(j.phi_dot))

    def test_equilibrium_exact_zero(self, vdp):
        assert jet(vdp, State(0.0, 0.0, 0.0)).lie_residual == 0.0

    def test_sweep_both_systems(self, both_systems):
        for sys_ in both_systems:
            worst = 0.0
            for s in sweep_states(100):
                j = jet(sys_, s)
                rel = abs(j.lie_residual) / max(1.0, abs(j.phi_dot))
                worst = max(worst, rel)
            assert worst <= 1e-9

    @given(
        vecs=st.tuples(*[st.floats(min_value=-5, max_value=5, allow_nan=False)] * 4),
        x=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_wedge_identity(self, vecs, x, vdp):
        a = np.array(vecs[:2])
        b = np.array(vecs[2:])
        J = np.array(jacobian(vdp, x))
        lhs = det2(J @ a, b) + det2(a, J @ b)
        rhs = np.trace(J) * det2(a, b)
        scale = max(1.0, abs(det2(J @ a, b)) + abs(det2(a, J @ b)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * scale)


# (config, x) where f(x)*f(x) overflows but the exact branch values are
# finite: u_fast is -3.3e199 on llibre_mereu at 1e40, -1e300 on vdp at 1e100
F_SQUARED_OVERFLOWS = [("llibre_mereu", 1e40), ("llibre_mereu", 2e40), ("vdp", 1e100),
                       ("vdp", -1e101)]
# 4 eps g' overflows (g' = -1e300, eps = 1e10) while f * f does not: the
# exact roots are u = -+1e155 at x = 1
EPS_GPRIME_OVERFLOWS = [[0, 1e100], [0, 1]]


def exact_branch(sys_, x):
    """(y_slow, u_slow, u_fast) at x from the exact polynomials, as Decimals.

    With u = g w, g' w**2 + f w + eps = 0; the slow root is the one of
    smaller |u|.  The polynomial values are exact (Fraction); 1000 digits
    carry the textbook formula's cancellation, f**2 / (eps g') <= 1e405.
    """
    def exact(p):
        return sum(Fraction(c, p.den) * Fraction(x) ** k for k, c in enumerate(p.num))

    with decimal.localcontext(decimal.Context(prec=1000, Emax=10**6, Emin=-10**6)):
        F, f, g, gp = (decimal.Decimal(v.numerator) / v.denominator
                       for v in map(exact, (sys_.F, sys_.f, sys_.g, sys_.gp)))
        eps = decimal.Decimal(sys_.eps)
        root = (f * f - 4 * eps * gp).sqrt()
        u = sorted((g * (-f + root) / (2 * gp), g * (-f - root) / (2 * gp)), key=abs)
        return F + u[0], u[0], u[1]


def assert_close_to_exact_roots(sys_, x, got):
    for v, want in zip(got, exact_branch(sys_, x)):
        assert math.isfinite(v), (x, v, want)
        assert abs(decimal.Decimal(v) - want) <= abs(want) * decimal.Decimal("1e-12"), (x, v, want)


class TestSlowBranches:
    def test_vdp_reference(self, vdp):
        br = slow_branches(vdp, 2.0)
        assert br.u_slow == pytest.approx(-0.033521, abs=1e-6)
        assert br.u_fast == pytest.approx(-5.966479, abs=1e-5)
        assert br.y_slow == pytest.approx(0.633146, abs=1e-6)
        assert not br.fold_excluded

    def test_quadratic_formula_oracle(self, vdp):
        fx, gx, gpx = vdp.f(2.0), vdp.g(2.0), vdp.gp(2.0)
        disc = (fx * gx) ** 2 - 4 * gpx * vdp.eps * gx * gx
        u_exact = (-fx * gx + math.sqrt(disc)) / (2 * gpx)
        assert slow_branches(vdp, 2.0).u_slow == pytest.approx(u_exact, rel=1e-12)

    def test_fold_exclusion(self, vdp):
        br = slow_branches(vdp, 1.0)
        assert br.fold_excluded
        assert br.u_slow is None and br.u_fast is None and br.y_slow is None

    def test_fold_is_where_f_evaluates_to_zero(self):
        # f = 2e-8 at x = 1 + 1e-8 is small but not 0, and g' = -2 < 0, so
        # the quadratic has both roots, u = +-|g|*sqrt(eps/2) = +-3.16e-9
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1, 0, -1], 0.05)
        br = slow_branches(sys_, 1 + 1e-8)
        assert not br.fold_excluded
        assert sorted((br.u_slow, br.u_fast)) == pytest.approx([-3.1623e-9, 3.1623e-9], rel=1e-4)
        assert br.y_slow == sys_.F(br.x) + br.u_slow

    def test_negative_discriminant_is_not_fold(self, vdp):
        br = slow_branches(vdp, 1.1)  # f small but not 0; disc < 0
        assert not br.fold_excluded
        assert br.u_slow is None

    @pytest.mark.parametrize("x", [1e-170, 1e-160])
    def test_roots_near_a_zero_of_g(self, vdp, x):
        # f = -1 and g' = 1 to double precision, so u = x*w with
        # w**2 - w + eps = 0: w = (1 -+ sqrt(1 - 4*eps))/2 = 0.0528, 0.9472
        br = slow_branches(vdp, x)
        assert br.u_slow / x == pytest.approx(0.052786404500042, rel=1e-12)
        assert br.u_fast / x == pytest.approx(0.947213595499958, rel=1e-12)

    def test_zero_of_g_gives_both_roots_zero(self):
        # at x = 0, g'u**2 = 0 whatever the sign of f**2 - 4*eps*g' (here 1 - 1.2)
        br = slow_branches(make_system([0, -1, 0, 1 / 3], [0, 1], 0.3), 0.0)
        assert (br.u_slow, br.u_fast, br.fold_excluded) == (0.0, 0.0, False)

    def test_zero_of_g_gives_zero_roots_where_w_overflows(self):
        # f = 5e-324 makes s subnormal, so w_slow = -2*eps/s is -inf (and
        # w_fast = -s/2/g' is -0.0 for g' = 5e-324); u = g*w is still a zero,
        # signed as g times w: -0.0 for g = +0.0, where 0.0 * -inf is nan
        br = slow_branches(make_system([0, 5e-324], [0.0], 0.05), -1.0)
        assert br == (-1.0, -0.0, None, -5e-324, False)
        assert math.copysign(1.0, br.u_slow) == -1.0
        br = slow_branches(make_system([0, 5e-324], [0, 5e-324], 0.05), 0.0)
        assert br == (0.0, -0.0, -0.0, 0.0, False)
        assert math.copysign(1.0, br.u_slow) == math.copysign(1.0, br.u_fast) == -1.0

    @pytest.mark.parametrize("name, x", F_SQUARED_OVERFLOWS)
    def test_roots_where_f_squared_overflows(self, name, x, request):
        # |f(x)| >= 2**512, so f*f overflows, while every exact value is finite
        sys_ = request.getfixturevalue(name)
        assert math.isinf(sys_.f(x) * sys_.f(x))
        br = slow_branches(sys_, x)
        assert br.x == x and not br.fold_excluded
        assert_close_to_exact_roots(sys_, x, (br.y_slow, br.u_slow, br.u_fast))

    @pytest.mark.parametrize("F", EPS_GPRIME_OVERFLOWS)
    def test_roots_where_eps_gprime_overflows(self, F):
        sys_ = make_system(F, [0, -1e300], 1e10)
        assert math.isinf(4.0 * sys_.eps * sys_.gp(1.0))
        br = slow_branches(sys_, 1.0)
        assert br.x == 1.0 and not br.fold_excluded
        assert_close_to_exact_roots(sys_, 1.0, (br.y_slow, br.u_slow, br.u_fast))

    def test_infinite_gprime_is_refused_not_read_as_no_branch(self):
        # g = 1e300 x**3 at x = 1e10: g and g' are inf in floats, so the plain
        # disc f*f - 4*eps*g' is -inf, though the exact one (1e200 - 1.2e21)
        # is positive and u_slow ~ -eps*g/f = -1e-70.  The row is nan, which
        # the writer refuses: no float decides it, and "no branch" is wrong.
        sys_ = make_system([0, 1e100], [0, 0, 0, 1e300], 1e-300)
        assert sys_.gp(1e10) == math.inf
        br = slow_branches(sys_, 1e10)
        assert br.x == 1e10 and not br.fold_excluded
        assert all(math.isnan(v) for v in (br.u_slow, br.u_fast, br.y_slow))
        with pytest.raises(ValueError, match=r"^the slow-branch row at x=10000000000\.0 "
                                             r"overflows float range$"):
            format_manifold_csv(sys_, 1e10, 2e10, 2)
        # where g alone is not finite, the disc, which does not read g, still
        # decides: a root g*w is then not finite, a row refused as it stands,
        # and a negative disc (f**2 - 4*eps*g' < 0) is no branch
        assert sys_.g(1e3) == math.inf and math.isfinite(sys_.gp(1e3))
        assert not math.isfinite(slow_branches(sys_, 1e3).y_slow)
        no_root = make_system([0, 1e-10], [0, 0, 0, 1e300], 1.0)
        assert slow_branches(no_root, 1e3)[1:] == (None, None, None, False)

    def test_eps_to_zero_recovers_critical_manifold(self):
        for eps in (1e-3, 1e-5, 1e-8):
            sys_ = make_system([0, -1, 0, 1 / 3], [0, 1], eps)
            br = slow_branches(sys_, 2.0)
            assert abs(br.y_slow - sys_.F(2.0)) <= eps

    def test_degenerate_linear_branch(self):
        sys_ = make_system([0, -1, 0, 1 / 3], [1.0], 0.05)  # g' = 0
        br = slow_branches(sys_, 2.0)
        assert br.u_fast is None
        assert br.u_slow == pytest.approx(-0.05 * sys_.g(2.0) / sys_.f(2.0), rel=1e-12)

    def test_tiny_gprime_keeps_the_fast_branch(self):
        # g' = 1e-14 is not 0: the quadratic is u^2 + 6u + 4e-14*eps = 0
        sys_ = make_system([0, -1, 0, 1 / 3], [0, 1e-14], 0.05)
        br = slow_branches(sys_, 2.0)
        assert br.u_fast == pytest.approx(-6.0, rel=1e-12)
        assert br.u_slow == pytest.approx(-0.05 * 2e-14 / 3.0, rel=1e-12)

    def test_slow_branch_smaller_than_fast(self, both_systems):
        for sys_ in both_systems:
            for br in (slow_branches(sys_, x) for x in np.linspace(1.4, 2.4, 60).tolist()):
                if br.u_slow is not None and br.u_fast is not None:
                    assert abs(br.u_slow) <= abs(br.u_fast)

    def test_branch_zeroes_phi(self, both_systems):
        for sys_ in both_systems:
            for br in (slow_branches(sys_, x) for x in np.linspace(1.4, 2.4, 60).tolist()):
                if br.y_slow is None:
                    continue
                val = sys_.eps**2 * jet(sys_, State(0.0, br.x, br.y_slow)).phi
                assert abs(val) <= 1e-9 * max(1.0, sys_.eps * sys_.g(br.x) ** 2)

    def test_first_order_asymptotics_ratio(self, vdp):
        def err(eps):
            sys_ = make_system(vdp.F, vdp.g, eps)
            u = slow_branches(sys_, 2.0).u_slow
            return abs(u + eps * sys_.g(2.0) / sys_.f(2.0))

        ratio = err(0.04) / err(0.02)
        assert 3.5 <= ratio <= 4.5


def table_rows(sys_, x_lo, x_hi, n):
    """The cells of format_manifold_csv's rows, after its header."""
    lines = format_manifold_csv(sys_, x_lo, x_hi, n).split("\n")
    assert lines[0] == MANIFOLD_CSV_HEADER and lines[-1] == ""
    return [line.split(",") for line in lines[1:-1]]


class TestSlowManifoldTable:
    def test_rows_and_signs(self, vdp):
        rows = table_rows(vdp, 1.25, 2.0, 5)
        assert len(rows) == 5
        assert all(r[4] == "false" for r in rows)
        assert all(r[2] != "" and float(r[2]) < 0 for r in rows)

    def test_discriminant_boundary_at_small_f(self, vdp):
        # At eps = 0.05 real branches need f(x)^2 >= 4*eps*g'; x = 1.2 sits
        # just below that threshold, so no branch is reported there.
        br = slow_branches(vdp, 1.2)
        assert br.u_slow is None and not br.fold_excluded
        assert slow_branches(vdp, 1.21).u_slow is not None

    def test_fold_rows_flagged(self, vdp):
        rows = table_rows(vdp, 0.5, 1.5, 3)  # hits x = 1.0 exactly
        assert rows[1] == ["1.0", "", "", "", "true"]

    @pytest.mark.parametrize("name, x_lo, x_hi, n", [("llibre_mereu", 1e40, 2e40, 2),
                                                       ("vdp", 1e100, 1e101, 3)])
    def test_rows_where_f_squared_overflows(self, name, x_lo, x_hi, n, request):
        # the writer's rows are finite there and hold the exact roots
        sys_ = request.getfixturevalue(name)
        rows = table_rows(sys_, x_lo, x_hi, n)
        assert len(rows) == n and all(r[4] == "false" for r in rows)
        for r in rows:
            assert_close_to_exact_roots(sys_, float(r[0]), tuple(map(float, r[1:4])))

    @pytest.mark.parametrize("F", EPS_GPRIME_OVERFLOWS)
    def test_rows_where_eps_gprime_overflows(self, F):
        sys_ = make_system(F, [0, -1e300], 1e10)
        rows = table_rows(sys_, 1.0, 2.0, 2)
        assert [float(r[0]) for r in rows] == [1.0, 2.0] and all(r[4] == "false" for r in rows)
        for r in rows:
            assert_close_to_exact_roots(sys_, float(r[0]), tuple(map(float, r[1:4])))

    def test_two_points_are_endpoints(self, vdp):
        rows = table_rows(vdp, 1.2, 2.0, 2)
        assert [float(r[0]) for r in rows] == [1.2, 2.0]

    def test_n_below_two_rejected(self, vdp):
        with pytest.raises(ValueError, match="^n=1 must be at least 2$"):
            format_manifold_csv(vdp, 1.2, 2.0, 1)

    def test_csv_round_trip(self, vdp):
        rows = [slow_branches(vdp, x) for x in (1.25, 1.5, 1.75, 2.0)]
        text = format_manifold_csv(vdp, 1.25, 2.0, 4)
        lines = text.strip().split("\n")
        assert lines[0] == MANIFOLD_CSV_HEADER
        first = lines[1].split(",")
        assert float(first[0]) == rows[0].x
        assert float(first[1]) == rows[0].y_slow
        assert first[4] in ("true", "false")

    def test_csv_peak_memory_below_three_times_the_text(self, vdp):
        # the rows' strings and the joined text, and no third copy
        text, peak = traced_peak(format_manifold_csv, vdp, -2.0, 2.0, 4001)
        assert len(text) > 250_000 and text.endswith("false\n")
        assert peak < 3 * len(text)
