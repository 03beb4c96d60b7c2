"""Dense real-coefficient polynomials and bracketing real-root isolation.

Everything downstream (vector fields, curvature functions, energy balances)
is built from closed-form polynomial evaluation, so this module keeps exact
coefficient arithmetic and canonicalizes aggressively: coefficients whose
magnitude is at or below ``ZERO_SNAP`` are treated as zero, which makes
exactly-cancelling combinations (e.g. the curvature case function of a
quadratic potential) come out as the genuine zero polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

# Snap threshold applied to every coefficient during canonicalization.
ZERO_SNAP = 1e-14

# |p| must dip below this at a local minimizer of |p| for a root that does
# not change sign (even multiplicity) to be reported by real_roots.
TOUCH_TOL = 1e-10

# Default number of grid cells scanned for sign changes by real_roots.
GRID_CELLS = 1024


def horner(desc: Sequence[float], x: float) -> float:
    """Value at x of the polynomial with coefficients ``desc``, descending by degree."""
    r = 0.0
    for c in desc:
        r = r * x + c
    return r


def horner_source(desc: Sequence[str], x: str) -> str:
    """Python expression text for ``horner`` over the coefficient names ``desc``.

    The text multiplies and adds in ``horner``'s order, so for finite x it
    evaluates bit for bit like ``horner`` on the named values: horner's
    first step, ``0.0 * x + c``, returns the leading coefficient c, which
    a Polynomial keeps nonzero.
    """
    if not desc:
        return "0.0"
    src = desc[0]
    for c in desc[1:]:
        src = f"({src} * {x} + {c})"
    return src


class Polynomial:
    """Immutable univariate polynomial, coefficients ascending by degree.

    ``coeffs[k]`` multiplies x**k.  Instances are canonical: trailing
    (near-)zero coefficients are stripped, so two polynomials are equal
    iff their coefficient tuples are equal.  The zero polynomial has an
    empty coefficient tuple and degree ``None``.  ``desc`` holds the same
    coefficients descending by degree, the order ``horner`` consumes.
    """

    __slots__ = ("coeffs", "desc")

    def __init__(self, coeffs: Iterable[float] = (), zero_snap: float = ZERO_SNAP):
        c = [float(v) for v in coeffs]
        c = [0.0 if abs(v) <= zero_snap else v for v in c]
        while c and c[-1] == 0.0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "desc", tuple(reversed(c)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (no numeric sentinel)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: float) -> float:
        """Horner evaluation; exact for degree 0."""
        return horner(self.desc, x)

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def antiderivative(self, c0: float = 0.0) -> "Polynomial":
        return Polynomial([c0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(other * c for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def to_list(self) -> list[float]:
        """JSON form: plain list of coefficients, ascending degree."""
        return list(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _coerce(v) -> "Polynomial":
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, float)):
        return Polynomial([v])
    return NotImplemented


def _bisect(p: Polynomial, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    while b - a > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = p(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _newton_polish(p: Polynomial, dp: Polynomial, r: float, lo: float, hi: float) -> float:
    best, fbest = r, abs(p(r))
    x = r
    for _ in range(4):
        d = dp(x)
        if d == 0.0:
            break
        x = x - p(x) / d
        if not (lo <= x <= hi) or not math.isfinite(x):
            break
        fx = abs(p(x))
        if fx < fbest:
            best, fbest = x, fx
    return best


def real_roots(
    p: Polynomial,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    cells: int = GRID_CELLS,
) -> list[float]:
    """All distinct real roots of ``p`` in [lo, hi], sorted, accurate to ~tol.

    Sign changes are located on a grid of ``cells`` cells and refined by
    bisection plus a guarded Newton polish.  Roots of even multiplicity
    (no sign change) are recovered from local minimizers of |p| where
    |p| dips below ``TOUCH_TOL``.  No two returned roots are closer
    than ``tol``.

    Raises:
        ValueError: for the zero polynomial, or if lo >= hi or tol <= 0.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if not lo < hi:
        raise ValueError("real_roots requires lo < hi")
    if not tol > 0.0:
        raise ValueError("real_roots requires tol > 0")
    if p.degree == 0:
        return []

    dp = p.derivative()

    def noise_floor(x: float) -> float:
        # |p| below ~100 ulps of the evaluation is indistinguishable from zero
        scale = sum(abs(c) * max(1.0, abs(x)) ** k for k, c in enumerate(p.coeffs))
        return 100.0 * 2.220446049250313e-16 * scale

    bracketed: list[float] = []
    xs = [lo + (hi - lo) * i / cells for i in range(cells + 1)]
    vals = [p(x) for x in xs]
    for i in range(cells):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            bracketed.append(xs[i])
        elif fa * fb < 0.0:
            bracketed.append(_bisect(p, xs[i], xs[i + 1], fa, fb, tol))
    if vals[-1] == 0.0:
        bracketed.append(hi)

    # Critical points of p separate its simple roots, so bracketing between
    # consecutive critical points catches sign changes finer than the grid;
    # even-multiplicity roots show up where |p| dips to ~0 at a minimizer.
    touched: list[float] = []
    if p.degree >= 2 and not dp.is_zero:
        crits = real_roots(dp, lo, hi, tol, cells)
        cuts = [lo] + crits + [hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            fa, fb = p(a), p(b)
            if a < b and fa * fb < 0.0:
                bracketed.append(_bisect(p, a, b, fa, fb, tol))
        for c in crits:
            v = abs(p(c))
            if v > TOUCH_TOL:
                continue
            if v > noise_floor(c) and any(
                abs(p(0.5 * (c + r))) <= TOUCH_TOL for r in bracketed
            ):
                # decisively nonzero trough bottom between detected
                # crossings: p changes sign there, so it is not a
                # touching (even-multiplicity) root
                continue
            touched.append(c)

    candidates = [_newton_polish(p, dp, r, lo, hi) for r in bracketed]
    candidates += [_newton_polish(p, dp, c, lo, hi) for c in touched]

    def same_basin(a: float, b: float) -> bool:
        if b - a < tol:
            return True
        m = 0.5 * (a + b)
        return abs(p(m)) <= noise_floor(m)

    # Candidates inside one numerically-zero basin (an even-multiplicity dip
    # or a sub-noise cluster) are one root: keep the best representative.
    out: list[float] = []
    for r in sorted(candidates):
        if out and same_basin(out[-1], r):
            if abs(p(r)) < abs(p(out[-1])):
                out[-1] = r
        else:
            out.append(r)
    return out


def extreme_values(p: Polynomial, lo: float, hi: float) -> list[float]:
    """p at lo, hi and the roots of p' between: its extrema on [lo, hi] are among them."""
    pts = [lo, hi]
    dp = p.derivative()
    if dp.degree is not None and dp.degree >= 1:
        pts += real_roots(dp, lo, hi)
    return [p(t) for t in pts]
