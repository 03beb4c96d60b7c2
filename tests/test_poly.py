import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcurv import poly
from flowcurv.poly import Polynomial, coefficient_names, horner_source, real_roots, signs_on

F_VDP = Polynomial([0, -1, 0, 1 / 3])
F_LM = Polynomial([0, -1, 0, 1 / 3, 0, 1 / 5])


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=0, max_size=9
)
xs_small = st.floats(min_value=-10, max_value=10, allow_nan=False)


def naive_eval(p: Polynomial, x: float) -> float:
    return sum(c * x**k for k, c in enumerate(p.coeffs))


class TestEval:
    def test_cubic_over_three(self):
        assert F_VDP(2.0) == pytest.approx(2 / 3, rel=1e-12)

    def test_zero_polynomial(self):
        assert Polynomial()(17.3) == 0.0

    def test_quintic_at_one(self):
        assert F_LM(1.0) == pytest.approx(-7 / 15, rel=1e-12)

    @given(coeff_lists, xs_small)
    @settings(max_examples=200)
    def test_matches_naive_power_sum(self, coeffs, x):
        p = Polynomial(coeffs)
        expected = naive_eval(p, x)
        assert p(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


# Coefficients with many exact zeros, and abscissae with signed zeros, tiny
# and huge magnitudes.
sparse_coeffs = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    min_size=0, max_size=12)
wide_xs = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestHornerSource:
    @given(sparse_coeffs, wide_xs)
    @example([0.3, -1.7, 0.0, 0.25, 0.0, 0.0, -0.5, 0.0, 0.0, 0.125], -0.0)
    @example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0], 1e-40)
    @example([0.0, 1.0], -0.0)
    @example([0.0, 0.0, 0.0, -1.0], 1e-200)
    @settings(max_examples=400)
    def test_generated_code_is_bitwise_horner(self, coeffs, x):
        # Interior zero terms are left out of the text; the value, a signed
        # zero included, stays horner's to the bit.
        p = Polynomial(coeffs)
        names = coefficient_names(tuple(map(bool, p.desc)), "c")
        assert names.count(None) == p.desc.count(0.0)
        at = eval(f"lambda x: {horner_source(names, 'x')}",
                  {name: c for name, c in zip(names, p.desc) if name})
        assert at(x).hex() == p(x).hex()


class TestCalculus:
    def test_derivative_of_cubic(self):
        assert F_VDP.derivative().coeffs == pytest.approx((-1.0, 0.0, 1.0))

    def test_derivative_of_constant(self):
        assert Polynomial([4.2]).derivative().is_zero

    def test_derivative_of_quartic_potential(self):
        G = Polynomial([0, 0, 1 / 2, 0, 1 / 12])
        assert G.derivative().coeffs == pytest.approx((0.0, 1.0, 0.0, 1 / 3))

    def test_antiderivative_of_linear(self):
        assert Polynomial([0, 1]).antiderivative(0.0).coeffs == pytest.approx((0.0, 0.0, 0.5))

    def test_antiderivative_of_zero_keeps_constant(self):
        assert Polynomial().antiderivative(5.0).coeffs == (5.0,)

    def test_antiderivative_of_cubic(self):
        g = Polynomial([0, 1, 0, 1 / 3])
        assert g.antiderivative(0.0).coeffs == pytest.approx((0.0, 0.0, 0.5, 0.0, 1 / 12))

    @given(coeff_lists, st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=200)
    def test_derivative_of_antiderivative_roundtrip(self, coeffs, c0):
        p = Polynomial(coeffs)
        assert p.antiderivative(c0).derivative() == p  # exact arithmetic


class TestArithmetic:
    def test_mul(self):
        x = Polynomial([0, 1])
        assert (x * x).coeffs == (0.0, 0.0, 1.0)

    def test_add(self):
        assert (Polynomial([-1, 0, 1]) + 1).coeffs == (0.0, 0.0, 1.0)

    def test_quadratic_potential_case_function_vanishes(self):
        G = Polynomial([0, 0, 0.5])
        Gp = G.derivative()
        Gpp = Gp.derivative()
        H = Gp * Gp - 2.0 * (G * Gpp)
        assert H.is_zero

    @given(coeff_lists, coeff_lists, xs_small)
    @example([1e-10], [0, 0, 0, 0, 1e-5], 10.0)  # the product's 1e-15 x**4 is kept
    @settings(max_examples=200)
    def test_eval_is_ring_homomorphism(self, ca, cb, x):
        p, q = Polynomial(ca), Polynomial(cb)
        scale = max(1.0, abs(p(x)) + abs(q(x)))
        assert (p + q)(x) == pytest.approx(p(x) + q(x), abs=1e-12 * scale)
        scale_m = max(1.0, abs(p(x)) * abs(q(x)))
        assert (p * q)(x) == pytest.approx(p(x) * q(x), abs=1e-12 * scale_m * (len(p.coeffs) + 1))

    def test_scale(self):
        assert (Polynomial([1, 2]) * 3.0).coeffs == (3.0, 6.0)
        assert (3.0 * Polynomial([1, 2])).coeffs == (3.0, 6.0)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1.0, 2.0)

    def test_small_coefficients_are_kept(self):
        assert Polynomial([1, 1e-15]).coeffs == (1.0, 1e-15)
        assert not Polynomial([0, 1e-15]).is_zero
        assert Polynomial([0.0, 1e-15]).degree == 1

    def test_zero_degree_is_sentinel(self):
        assert Polynomial().degree is None

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="a Polynomial needs finite coefficients"):
            Polynomial([1.0, c])


class TestRealRoots:
    def test_f_roots(self):
        assert real_roots(Polynomial([-1, 0, 1]), 0.0, 3.0) == pytest.approx([1.0], abs=1e-11)

    def test_quartic_root(self):
        alpha = math.sqrt((math.sqrt(5) - 1) / 2)
        got = real_roots(Polynomial([-1, 0, 1, 0, 1]), 0.0, 3.0)
        assert got == pytest.approx([alpha], abs=1e-11)

    def test_cubic_positive_zero(self):
        got = real_roots(F_VDP, 0.1, 3.0)
        assert got == pytest.approx([math.sqrt(3)], abs=1e-11)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            real_roots(Polynomial(), 0.0, 1.0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            real_roots(F_VDP, 2.0, 1.0)

    def test_even_multiplicity_root_found(self):
        got = real_roots(Polynomial([1, -2, 1]), 0.0, 3.0)  # (x-1)^2
        assert got == pytest.approx([1.0], abs=1e-7)

    def test_no_roots(self):
        assert real_roots(Polynomial([1, 0, 1]), -5.0, 5.0) == []

    def test_endpoint_root(self):
        assert real_roots(Polynomial([-1, 1]), 0.0, 1.0) == pytest.approx([1.0], abs=1e-11)

    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False).filter(
                lambda v: abs(v) > 0.05
            ),
            min_size=1,
            max_size=5,
        )
    )
    # The product is exact, so 3.0 is an exact double root: it comes back once.
    @example([3.0, 3.0, -0.35786490858301256, -2.5657382516246017])
    @settings(max_examples=60, deadline=None)
    def test_roots_have_small_residual_and_are_separated(self, root_locs):
        p = Polynomial([1.0])
        for r in root_locs:
            p = p * Polynomial([-r, 1])
        tol = 1e-12
        got = real_roots(p, -4.0, 4.0)
        for r in got:
            scale = sum(abs(c) * max(1.0, abs(r)) ** k for k, c in enumerate(p.coeffs))
            assert abs(p(r)) <= tol * max(1.0, scale)
        # one nearest float per distinct root: equal neighbours are distinct
        # exact roots that round to the same float
        assert got == sorted(got)
        for a, b in zip(got[:-1], got[1:]):
            if a == b:
                cell = real_roots(p, math.nextafter(a, -math.inf), math.nextafter(a, math.inf))
                assert len(cell) >= 2
        # every simple true root is recovered
        for r in sorted(set(round(v, 9) for v in root_locs)):
            if sum(1 for v in root_locs if abs(v - r) < 1e-9) == 1:
                assert any(abs(v - r) < 1e-6 for v in got)

    def test_grid_default_resolves_close_roots(self):
        p = Polynomial([1.0])
        for r in (0.5, 0.52, 0.54):
            p = p * Polynomial([-r, 1])
        got = real_roots(p, 0.0, 1.0)
        assert got == pytest.approx([0.5, 0.52, 0.54], abs=1e-10)


class TestExactDecisions:
    """Cases the former 1025-point grid scan got wrong."""

    def test_roots_1e7_apart_are_both_found(self):
        p = Polynomial([-1.0, 1]) * Polynomial([-(1.0 + 1e-7), 1])
        got = real_roots(p, 0.0, 3.0)
        assert got == [1.0, 1.0000001]  # the product is exact: its roots are the factors'
        assert len(got) == 2 and got[0] < 1.0 + 5e-8 < got[1]

    @pytest.mark.parametrize("r", [0.5, 0.75])
    def test_triple_root_to_the_ulp(self, r):
        p = Polynomial([-r, 1]) * Polynomial([-r, 1]) * Polynomial([-r, 1])
        assert real_roots(p, 0.0, 3.0) == [r]

    def test_endpoint_roots_counted_once_each(self):
        p = Polynomial([-1, 1]) * Polynomial([-2, 1]) * Polynomial([-2, 1])  # (x-1)(x-2)^2
        assert real_roots(p, 1.0, 2.0) == [1.0, 2.0]
        assert real_roots(p, 0.0, 2.0) == [1.0, 2.0]
        assert real_roots(p, 1.0, 3.0) == [1.0, 2.0]
        assert signs_on(p, 1.0, 2.0) == {0, 1}  # the root at lo is outside (lo, hi]
        assert signs_on(p, 1.0, 1.5) == {1}

    def test_root_at_lo_of_a_half_open_window(self):
        H = Polynomial([0, 0, 0, 0, -0.5, 0, -1 / 18])  # llibre_mereu's H, H(0) = 0
        assert real_roots(H, 0.0, 10.0) == [0.0]
        assert signs_on(H, 0.0, 10.0) == {-1}
        assert signs_on(-H, 0.0, 10.0) == {1}
        assert signs_on(-H, -1.0, 10.0) == {0, 1}

    def test_touching_root_breaks_positivity_but_not_the_sign(self):
        p = Polynomial([4, -4, 1])  # (x-2)^2
        assert signs_on(p, 0.0, 3.0) == {0, 1}
        assert signs_on(p, 2.0, 3.0) == {1}
        assert signs_on(p * Polynomial([-2, 1]), 0.0, 3.0) == {-1, 0, 1}

    def test_roots_closer_than_an_ulp_are_counted(self):
        # Mignotte: x^8 - 2*(2^26*x - 1)^2 has two roots near 2^-26 about
        # 2^-130 apart, far inside one float's rounding cell, with p > 0
        # only between them.
        p = Polynomial([-2.0, 2.0 ** 28, -2.0 ** 53, 0, 0, 0, 0, 0, 1.0])
        got = real_roots(p, 0.0, 1.0)
        assert got == [2.0 ** -26, 2.0 ** -26]
        assert signs_on(p, 0.0, 1.0) == {-1, 0, 1}
        assert signs_on(p, 0.0, 2.0 ** -27) == {-1}

    def test_ill_conditioned_simple_root_to_the_ulp(self):
        # (x-1)^7 - 2^-40, expanded: near its simple root 1 + 2^(-40/7) the
        # float Horner value is rounding noise for |x - r| below ~1e-5, so
        # only signs checked against the error bound find the nearest float
        c = [math.comb(7, k) * (-1) ** (7 - k) for k in range(8)]
        c[0] -= 2.0 ** -40
        p = Polynomial(c)
        assert real_roots(p, 0.0, 2.0) == [1.019047088346945]

    def test_huge_coefficient_spread_is_decided_exactly(self):
        # the integer form's coefficients overflow float: every sign goes exact
        p = Polynomial([-1e-10, 0, 1e300])
        got = real_roots(p, 1e-300, 1.0)
        assert got[0] == pytest.approx(1e-155, rel=1e-15)

    @pytest.mark.parametrize("decide", [
        lambda p: real_roots(p, 0.0, 1.0),
        lambda p: signs_on(p, 0.0, 1.0),
        lambda p: signs_on(p, 0.0, 1.0) == {1},
    ])
    def test_non_finite_coefficient_raises(self, decide):
        # g = 1e160 x squares to an infinite coefficient in H
        with pytest.raises(ValueError, match="finite coefficients"):
            decide(Polynomial([0, 1e160]) * Polynomial([0, 1e160]))


def bisected_root(q, a, b, sb):
    """The float nearest the root of q in (a, b), ties to the lower, by bisection alone.

    The exact bisection _nearest_root falls back to, kept here as its
    reference; a zero is +0.0, as _nearest_root gives it on either path.
    """
    while True:
        below, above = a[0] / (1 << a[1]), b[0] / (1 << b[1])
        if below == above:
            return below + 0.0
        if above == math.nextafter(below, math.inf):
            mid = poly._midpoint(poly._dyadic(below), poly._dyadic(above))
            if poly._cmp(mid, a) <= 0:
                return above + 0.0
            if poly._cmp(mid, b) >= 0:
                return below + 0.0
            return (below if poly._sign_at(q, mid) in (0, sb) else above) + 0.0
        m = poly._midpoint(a, b)
        s = poly._sign_at(q, m)
        if s == 0:
            a, b = ((m[0] << 1076) - 1, m[1] + 1076), m
        elif s == sb:
            b = m
        else:
            a = m


def exactly(value: Fraction) -> Polynomial:
    """x - value, exactly."""
    return Polynomial._exact([-value.numerator, value.denominator], value.denominator)


def product(*factors: Polynomial) -> Polynomial:
    p = Polynomial([1.0])
    for f in factors:
        p = p * f
    return p


ULP = Fraction(math.ulp(1.5))  # 1.5 and 1.5 + ULP are adjacent floats
MILL = [math.comb(7, k) * (-1) ** (7 - k) - (k == 0) * 2.0 ** -40 for k in range(8)]
# (polynomial, lo, hi): ties, roots an ulp apart or inside one float's cell,
# roots a bisection midpoint hits, windows reaching float max, a root at
# zero, ill-conditioned and huge-spread roots, and the bundled F's.
ROOT_FAMILIES = [
    (product(exactly(Fraction(1.5) + ULP / 2), Polynomial([1.0, 0, 1.0])), 1.0, 2.0),
    (product(exactly(Fraction(1.5) + 3 * ULP / 2), Polynomial([1.0, 0, 1.0])), 1.0, 2.0),
    (product(exactly(Fraction(1.5) + ULP / 2), Polynomial([1.0, 0, 1.0])),
     1.5 - math.ulp(1.5), 1.5 + 2 * math.ulp(1.5)),
    (product(exactly(Fraction(1.5)), exactly(Fraction(1.5) + ULP)), 1.0, 2.0),
    (product(exactly(Fraction(1.5) + ULP / 4), exactly(Fraction(1.5) + 3 * ULP / 4)), 1.0, 2.0),
    (product(exactly(Fraction(1.5) + ULP / 8), exactly(Fraction(1.5) + 3 * ULP / 8)), 1.0, 2.0),
    (product(Polynomial([-1.0, 1.0]), Polynomial([-3.0, 1.0])), 0.0, 4.0),
    (product(Polynomial([-1.0, 1.0]), Polynomial([-2.0, 1.0]), Polynomial([-3.0, 1.0])), 0.0, 4.0),
    (product(Polynomial([3.0, 1.0]), Polynomial([1.0, 1.0])), -4.0, 0.0),
    (Polynomial([1.5e308, -2.5, 1e-308]), 0.0, 1.7e308),
    (Polynomial([1.5e308, 2.5, 1e-308]), -1.7e308, 0.0),
    (Polynomial([-1e308, 0, 1e-308]), 0.0, 1.7e308),
    (Polynomial([0.0, 2.0]), -10.0, 10.0),
    (Polynomial([0.0, 1.0, 0.0, 1.0]), -3.0, 10.0),
    (Polynomial(MILL), 0.0, 2.0),
    (Polynomial([-2.0, 2.0 ** 28, -2.0 ** 53, 0, 0, 0, 0, 0, 1.0]), 0.0, 1.0),
    (Polynomial([-1e-10, 0, 1e300]), 1e-300, 1.0),
    (F_VDP, -10.0, 10.0),
    (F_LM, -10.0, 10.0),
    (F_LM.derivative(), -10.0, 10.0),
]


def brackets():
    for p, lo, hi in ROOT_FAMILIES:
        iso = poly._isolate(p, lo, hi)
        for a, b, sb in iso.brackets:
            yield iso.q, a, b, sb


class TestNearestRootAgainstBisection:
    """_nearest_root's certified float guess against the exact bisection, bit for bit."""

    def test_families(self, monkeypatch):
        guesses = []
        guess = poly._float_guess

        def recorded(*args):
            guesses.append(guess(*args))
            return guesses[-1]

        monkeypatch.setattr(poly, "_float_guess", recorded)
        taken = fallen_back = 0
        for q, a, b, sb in brackets():
            want = bisected_root(q, a, b, sb)
            got = poly._nearest_root(q, a, b, sb)
            assert got.hex() == want.hex(), (q, a, b)
            if guesses and guesses[-1] is not None and guesses[-1].hex() == got.hex():
                taken += 1
            else:
                fallen_back += 1
            guesses.clear()
        # both paths run: guesses that are certified, and ones that fail
        # (no float Newton near float max, ties)
        assert taken >= 10 and fallen_back >= 5, (taken, fallen_back)

    def test_wrong_guesses_are_refused(self, monkeypatch):
        # any guess, right or wrong, ends at the bisection's float
        for q, a, b, sb in brackets():
            want = bisected_root(q, a, b, sb)
            candidates = [want, -want, 0.0, -0.0, None, a[0] / (1 << a[1]), b[0] / (1 << b[1])]
            up = down = want
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                candidates += [up, down]
            for candidate in candidates:
                monkeypatch.setattr(poly, "_float_guess", lambda *args: candidate)
                assert poly._nearest_root(q, a, b, sb).hex() == want.hex(), (q, a, b, candidate)

    def test_real_roots_unchanged_by_the_guess(self, monkeypatch):
        def found():
            return [[r.hex() for r in real_roots(p, lo, hi)] for p, lo, hi in ROOT_FAMILIES]

        with_guess = found()
        monkeypatch.setattr(poly, "_float_guess", lambda *args: None)
        assert found() == with_guess

    @pytest.mark.parametrize("guess", ["float", "none"])
    def test_a_root_at_zero_is_positive_zero_in_every_window(self, monkeypatch, guess):
        # whether a bisection midpoint hits 0 or the ends close in on it, and
        # whether the guess or the bisection finds it, a zero is +0.0; so is
        # a window's end that is a root, -0.0 included
        if guess == "none":
            monkeypatch.setattr(poly, "_float_guess", lambda *args: None)
        his = [10.0, 3.0, 1.0, 0.7, 1e-300, 5e-324]
        windows = ([(-lo, hi) for lo in his for hi in his]
                   + [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0)])
        for p in (Polynomial([0.0, 2.0]), Polynomial([0.0, -1.0, 0.0, 1.0]), F_LM,
                  Polynomial([0.0, 0.0, 0.0, 1.0])):
            for lo, hi in windows:
                zeros = [r for r in real_roots(p, lo, hi) if r == 0.0]
                assert [r.hex() for r in zeros] == ["0x0.0p+0"], (p, lo, hi)


class TestSerialization:
    def test_json_form(self):
        assert F_VDP.to_list() == [0.0, -1.0, 0.0, 1 / 3]
        assert Polynomial(F_VDP.to_list()) == F_VDP
