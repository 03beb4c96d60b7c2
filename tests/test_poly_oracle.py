"""real_roots and signs_on against sympy's exact root isolation."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcurv.energy import H_polynomial
from flowcurv.poly import Polynomial, real_roots, signs_on
from flowcurv.system import make_system

from conftest import CONFIGS, REPO

sympy = pytest.importorskip("sympy")


def _exact(p: Polynomial) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(n, p.den) for n in reversed(p.num)], x)


def nearest_float(r: Fraction) -> float:
    """The float nearest r, ties to the lower."""
    below = float(r)
    if below > r:
        below = math.nextafter(below, -math.inf)
    above = math.nextafter(below, math.inf)
    return below if r - Fraction(below) <= Fraction(above) - r else above


def sympy_oracle(p: Polynomial, lo: float, hi: float,
                 eps=sympy.Rational(1, 2 ** 120)) -> tuple[list[float], set[int]]:
    """p's distinct roots in [lo, hi] as nearest floats, and its signs on (lo, hi].

    From sympy's exact isolating intervals, refined to width eps; a root
    is the nearest float (ties to the lower) to its interval's midpoint,
    which is the root itself for a rational root.  The signs are the exact
    signs at one rational point between each pair of consecutive roots,
    and 0 when a root lies in (lo, hi].
    """
    q = _exact(p)
    lo_q, hi_q = sympy.Rational(*lo.as_integer_ratio()), sympy.Rational(*hi.as_integer_ratio())
    roots, inner, zero = [], [], set()
    for (a, b), _ in q.intervals(eps=eps):
        if b < lo_q or a > hi_q:
            continue
        if a != b and (a <= lo_q <= b or a <= hi_q <= b):
            raise AssertionError("an isolating interval straddles lo or hi")
        mid = (a + b) / 2
        roots.append(nearest_float(Fraction(int(mid.p), int(mid.q))))
        if not a == b == lo_q:
            zero = {0}
        if lo_q < a and b < hi_q:
            inner.append((a, b))
    cuts = [lo_q] + [v for iv in sorted(inner) for v in iv] + [hi_q]
    signs = {sympy.sign(q.eval((cuts[i] + cuts[i + 1]) / 2)) for i in range(0, len(cuts), 2)}
    assert 0 not in signs
    return sorted(roots), {int(v) for v in signs} | zero


# (k, m, j): the factor (x - k/2**m)**j.  Numerators up to 16 over 2**3, a
# total degree up to 7 and scales of a few bits keep every coefficient of the
# product exact in float (the test asserts it).
dyadic_factors = st.lists(
    st.tuples(st.integers(-16, 16), st.integers(0, 3), st.integers(1, 3)),
    min_size=1, max_size=4,
).filter(lambda fs: sum(j for _, _, j in fs) <= 7)
grid_windows = st.tuples(st.integers(-24, 24), st.integers(-24, 24)).filter(lambda w: w[0] < w[1])


class TestSympyOracle:
    @given(dyadic_factors, grid_windows, st.sampled_from([1.0, -1.0, 0.25, -3.0, 5.0]))
    @example([(8, 3, 2), (-8, 3, 1)], (-8, 8), 1.0)  # roots on both ends
    @example([(0, 0, 3), (12, 3, 1)], (0, 12), -3.0)
    @settings(max_examples=150, deadline=None)
    def test_dyadic_roots_counts_and_signs(self, factors, window, scale):
        x = sympy.Symbol("x")
        expr = sympy.Rational(*scale.as_integer_ratio()) * sympy.prod(
            (x - sympy.Rational(k, 2 ** m)) ** j for k, m, j in factors)
        p = Polynomial([scale])
        for k, m, j in factors:
            for _ in range(j):
                p = p * Polynomial([-k / 2 ** m, 1])
        assert _exact(p) == sympy.Poly(expr, x)  # the float product is exact
        lo, hi = window[0] / 8, window[1] / 8
        got = real_roots(p, lo, hi)
        roots, signs = sympy_oracle(p, lo, hi)
        assert len(got) == _exact(p).count_roots(lo, hi)
        assert got == roots  # dyadic roots are floats: exact equality
        assert signs_on(p, lo, hi) == signs

    @given(st.lists(st.floats(-10, 10).filter(lambda v: v == 0.0 or abs(v) > 1e-6),
                    min_size=2, max_size=7).filter(lambda c: c[-1] != 0.0),
           grid_windows)
    @settings(max_examples=150, deadline=None)
    def test_float_coefficients_nearest_roots(self, coeffs, window):
        p = Polynomial(coeffs)
        lo, hi = window[0] / 8, window[1] / 8
        got = real_roots(p, lo, hi)
        roots, signs = sympy_oracle(p, lo, hi)
        assert len(got) == _exact(p).count_roots(lo, hi) == len(roots)
        for g, w in zip(got, roots):
            assert abs(g - w) <= math.ulp(w)
        assert signs_on(p, lo, hi) == signs


class TestExactDecisionsAgainstSympy:
    """The hand-picked cases of test_poly.TestExactDecisions, checked by the oracle."""

    @pytest.mark.parametrize("p, lo, hi", [
        (Polynomial([-1.0, 1]) * Polynomial([-(1.0 + 1e-7), 1]), 0.0, 3.0),
        (Polynomial([-2.0, 2.0 ** 28, -2.0 ** 53, 0, 0, 0, 0, 0, 1.0]), 0.0, 1.0),
        (Polynomial([math.comb(7, k) * (-1) ** (7 - k) - (k == 0) * 2.0 ** -40
                     for k in range(8)]), 0.0, 2.0),
    ], ids=["roots_1e7_apart", "mignotte", "ill_conditioned"])
    def test_roots_match(self, p, lo, hi):
        assert real_roots(p, lo, hi) == sympy_oracle(p, lo, hi)[0]

    def test_huge_coefficient_spread(self):
        p = Polynomial([-1e-10, 0, 1e300])
        assert (real_roots(p, 1e-300, 1.0)
                == sympy_oracle(p, 1e-300, 1.0, eps=sympy.Rational(1, 2 ** 1100))[0])


# G = integral of g has the coefficient 0.21/6, which is not a float
QUINTIC_G = {"F": [0, -1, 0, 1 / 3], "g": [0, 1, 0, 0, 0, 0.21]}


class TestDerivedPolynomialsAgainstSympy:
    """f, f', g', g'', G and H are the exact calculus of the float inputs."""

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "quintic_g"])
    def test_exact_forms(self, name):
        cfg = (QUINTIC_G if name == "quintic_g"
               else json.loads((CONFIGS / f"{name}.json").read_text()))
        F, g = cfg["F"], cfg["g"]
        x = sympy.Symbol("x")

        def exact(coeffs):
            return sum(sympy.Rational(*float(c).as_integer_ratio()) * x ** k
                       for k, c in enumerate(coeffs))

        Fs, gs = exact(F), exact(g)
        Gs = sympy.integrate(gs, x)
        sys_ = make_system(F, g, 0.05)
        pairs = [(sys_.f, sympy.diff(Fs, x)), (sys_.fp, sympy.diff(Fs, x, 2)),
                 (sys_.gp, sympy.diff(gs, x)), (sys_.gpp, sympy.diff(gs, x, 2)),
                 (sys_.G, Gs), (H_polynomial(sys_), gs ** 2 - 2 * Gs * sympy.diff(gs, x))]
        for got, want in pairs:
            assert _exact(got).all_coeffs() == sympy.Poly(sympy.expand(want), x).all_coeffs()


def at(value: Fraction) -> Polynomial:
    """x - value, exactly."""
    return Polynomial._exact([-value.numerator, value.denominator], value.denominator)


ULP = Fraction(math.ulp(1.5))  # the floats 1.5 and 1.5 + ULP are adjacent


class TestPointsAgainstSympy:
    """Windows reaching float max, and roots at or between adjacent floats."""

    @pytest.mark.parametrize("coeffs, lo, hi", [([1.5e308, -2.5, 1e-308], 0.0, 1.7e308),
                                                 ([1.5e308, 2.5, 1e-308], -1.7e308, 0.0)],
                             ids=["positive", "mirrored"])
    def test_window_reaching_float_max(self, coeffs, lo, hi):
        # p = 1e-308 x**2 -+ 2.5 x + 1.5e308 has roots near +-1e308 and
        # +-1.5e308; bisecting the window passes midpoints beyond 8.99e307,
        # where the float a + b overflows.  A subprocess with a timeout
        # turns a hang into a failure.
        code = ("from flowcurv.poly import Polynomial, real_roots, signs_on\n"
                f"p = Polynomial({coeffs!r})\n"
                f"print(repr((real_roots(p, {lo!r}, {hi!r}),"
                f" sorted(signs_on(p, {lo!r}, {hi!r})))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=30, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert out.returncode == 0, out.stderr
        roots, signs = eval(out.stdout)
        want_roots, want_signs = sympy_oracle(Polynomial(coeffs), lo, hi)
        assert len(roots) == 2
        assert roots == want_roots
        assert set(signs) == want_signs == {-1, 0, 1}

    @pytest.mark.parametrize("below", [1.5, 1.5 + math.ulp(1.5)], ids=["even", "odd"])
    def test_root_at_a_tie_is_the_lower_float(self, below):
        # the tie point between below and the next float; float() of it
        # would round to the even one, which is the upper for an odd below.
        # The second window's first bisection midpoint is the tie itself.
        p = at(Fraction(below) + ULP / 2) * Polynomial([1.0, 0.0, 1.0])
        ulp = math.ulp(1.5)
        for lo, hi in [(1.0, 2.0), (below - ulp, below + 2 * ulp)]:
            roots, signs = sympy_oracle(p, lo, hi)
            assert real_roots(p, lo, hi) == roots == [below]
            assert signs_on(p, lo, hi) == signs == {-1, 0, 1}

    @pytest.mark.parametrize("eighths, want", [((2, 6), [1.5, 1.5 + math.ulp(1.5)]),
                                                ((1, 3), [1.5, 1.5])],
                             ids=["either_side", "same_side"])
    def test_two_roots_between_adjacent_floats(self, eighths, want):
        # two distinct roots strictly between 1.5 and 1.5 + ULP: one entry each
        p = at(Fraction(3, 2) + ULP * eighths[0] / 8) * at(Fraction(3, 2) + ULP * eighths[1] / 8)
        for lo, hi in [(1.0, 2.0), (1.5, 1.5 + math.ulp(1.5))]:
            roots, signs = sympy_oracle(p, lo, hi)
            assert real_roots(p, lo, hi) == roots == want
            assert signs_on(p, lo, hi) == signs == {1, 0, -1}

    @pytest.mark.parametrize("roots, lo, hi", [((1, 3), 0.0, 4.0), ((1, 2, 3), 0.0, 4.0),
                                               ((-3, -1), -4.0, 0.0)])
    def test_root_hit_by_a_bisection_midpoint(self, roots, lo, hi):
        # the midpoints 2, 1 and 3 of [0, 4] are roots: the isolating split
        # moves off a root, and the nearest-root bisection lands on one
        p = Polynomial([1.0])
        for r in roots:
            p = p * Polynomial([-r, 1.0])
        want_roots, want_signs = sympy_oracle(p, lo, hi)
        assert real_roots(p, lo, hi) == want_roots == [float(r) for r in roots]
        assert signs_on(p, lo, hi) == want_signs
