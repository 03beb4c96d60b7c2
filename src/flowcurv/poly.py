"""Dense polynomials with exact rational coefficients, and exact real-root isolation.

Everything downstream is built from polynomials.  A Polynomial holds its
coefficients exactly, as integer numerators over one integer denominator,
and its arithmetic and calculus are exact: a derived polynomial (f = F',
G = integral of g, H = g**2 - 2*G*g') is the exact one, and one that
cancels (H of a quadratic potential) is the zero polynomial.  The
coefficients are rounded to floats once, for evaluation.

Every decision about roots and signs is exact.  Scaled by its denominator,
p is an integer polynomial with p's roots.  Its repeated roots are removed
with an integer pseudo-remainder gcd against p', the Sturm chain of the
square-free part counts distinct roots between dyadic points, bisection
isolates each root in a bracket of its own, and every sign is an integer
Horner sum.  Every point of that work is an exact dyadic pair, so no
midpoint rounds or overflows.  Each root's bracket is then bisected, each
sign still exact, until its ends round to one float or to two adjacent
ones: each root comes back as the float nearest to it.
``signs_on`` is the one sign primitive: it gives the set of signs p takes
on a window, zero included, and every certified sign on a window reads it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from itertools import zip_longest
from typing import NamedTuple


def horner(desc: Sequence[float], x: float) -> float:
    """Value at x of the polynomial with coefficients ``desc``, descending by degree."""
    r = 0.0
    for c in desc:
        r = r * x + c
    return r


def coefficient_names(pattern: Sequence[bool], prefix: str) -> "list[str | None]":
    """Names prefix0, prefix1, ... for the coefficients ``pattern`` marks nonzero, else None."""
    return [f"{prefix}{i}" if nonzero else None for i, nonzero in enumerate(pattern)]


def horner_source(desc: "Sequence[str | None]", x: str) -> str:
    """Python expression text for ``horner`` over the coefficient names ``desc``.

    None stands for a zero coefficient.  The text multiplies and adds in
    ``horner``'s order, so for finite x it evaluates bit for bit like
    ``horner`` on the named values: horner's first step, ``0.0 * x + c``,
    returns the leading coefficient c, or 0.0 when an exact one underflows.
    An interior zero term is left out, since adding 0.0 changes at most
    the sign of a zero; the next nonzero term, or the last term, which is
    kept (as ``+ 0.0`` when zero), gives that zero the sign horner's does.
    """
    if not desc:
        return "0.0"
    src, last = desc[0] or "0.0", len(desc) - 1
    for i in range(1, len(desc)):
        if desc[i] is None and i < last:
            src = f"{src} * {x}"
        else:
            src = f"({src} * {x} + {desc[i] or '0.0'})"
    return src


class Polynomial:
    """Immutable univariate polynomial with exact rational coefficients.

    ``num[k] / den`` is the coefficient of x**k, exactly: ``num`` is a
    tuple of ints without trailing zeros and ``den`` a positive int, in
    lowest terms, so two polynomials are equal iff their (num, den) are.
    ``coeffs`` holds each coefficient rounded to the nearest float,
    ascending by degree, and ``desc`` the same floats descending, the
    order ``horner`` consumes.  The zero polynomial has empty tuples and
    degree ``None``.  Built from numbers, it takes each one's exact value;
    one that is not finite, or an exact value that overflows a float,
    raises ValueError.
    """

    __slots__ = ("num", "den", "coeffs", "desc")

    def __init__(self, coeffs: Iterable[float] = ()):
        try:
            ratios = [float(v).as_integer_ratio() for v in coeffs]
        except (OverflowError, ValueError):
            raise ValueError("a Polynomial needs finite coefficients") from None
        den = max((d for _, d in ratios), default=1)  # powers of two: the lcm
        self._settle([n * (den // d) for n, d in ratios], den)

    @classmethod
    def _exact(cls, num: list[int], den: int) -> "Polynomial":
        """The polynomial sum(num[k] * x**k) / den, for ints num and den > 0."""
        p = object.__new__(cls)
        p._settle(num, den)
        return p

    def _settle(self, num: list[int], den: int) -> None:
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        num, den = tuple(v // g for v in num), den // g
        try:
            coeffs = tuple(v / den for v in num)  # int true division rounds correctly
        except OverflowError:
            raise ValueError("a Polynomial needs finite coefficients") from None
        for name, value in (("num", num), ("den", den), ("coeffs", coeffs),
                            ("desc", coeffs[::-1])):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial._exact, (list(self.num), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (no numeric sentinel)."""
        return len(self.num) - 1 if self.num else None

    def __call__(self, x: float) -> float:
        """Horner evaluation on the float coefficients; exact for degree 0."""
        return horner(self.desc, x)

    def derivative(self) -> "Polynomial":
        return Polynomial._exact([k * v for k, v in enumerate(self.num)][1:], self.den)

    def antiderivative(self, c0: float = 0.0) -> "Polynomial":
        m = math.lcm(*range(1, len(self.num) + 1))
        return Polynomial._exact([0] + [v * (m // (k + 1)) for k, v in enumerate(self.num)],
                                 self.den * m) + c0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._exact(
            [a * other.den + b * self.den
             for a, b in zip_longest(self.num, other.num, fillvalue=0)],
            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._exact([-v for v in self.num], self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0] * max(len(self.num) + len(other.num) - 1, 0)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return Polynomial._exact(out, self.den * other.den)

    __rmul__ = __mul__

    def to_list(self) -> list[float]:
        """JSON form: plain list of the float coefficients, ascending degree."""
        return list(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _coerce(v) -> "Polynomial":
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, float)):
        return Polynomial([v])
    return NotImplemented


# --- Exact root isolation ---------------------------------------------------
#
# An integer polynomial is a list of ints, descending by degree.  A point is
# an exact dyadic pair (n, e) standing for n / 2**e, with e >= 0.


def _dyadic(x: float) -> tuple[int, int]:
    """The point (n, e) with x == n / 2**e."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    (na, ea), (nb, eb) = a, b
    e = max(ea, eb)
    d = (na << (e - ea)) - (nb << (e - eb))
    return (d > 0) - (d < 0)


def _midpoint(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The exact midpoint of the points a and b."""
    (na, ea), (nb, eb) = a, b
    e = max(ea, eb)
    return (na << (e - ea)) + (nb << (e - eb)), e + 1


def _sign_at(c: list[int], x: tuple[int, int]) -> int:
    """Exact sign of the integer polynomial c at the point x (homogeneous Horner)."""
    n, e = x
    r = sh = 0
    for k in c:
        r = r * n + (k << sh)
        sh += e
    return (r > 0) - (r < 0)


def _side_sign(c: list[int], x: tuple[int, int], side: int) -> int:
    """Sign of c just right (side 1) or just left (side -1) of the point x.

    The first derivative that does not vanish at x decides; c must not be
    the zero polynomial.
    """
    k = 0
    while True:
        s = _sign_at(c, x)
        if s:
            return s * side ** k
        c = _int_derivative(c)
        k += 1


def _primitive(c: list[int]) -> list[int]:
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _int_derivative(c: list[int]) -> list[int]:
    d = len(c) - 1
    return [k * (d - i) for i, k in enumerate(c[:-1])]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with m*a == q*b + r for an integer m > 0 and deg r < deg b."""
    m, s = abs(b[0]), (1 if b[0] > 0 else -1)
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        k = r[0] * s
        q = [m * v for v in q]
        q[len(q) - 1 - (len(r) - len(b))] += k
        r = [m * v for v in r]
        for i, v in enumerate(b):
            r[i] -= k * v
        del r[0]  # now zero
        while r and r[0] == 0:
            del r[0]
    return q, r


def _sturm(c: list[int]) -> list[list[int]]:
    """Sturm chain c, c', -rem, ... by primitive pseudo-remainders; its last entry is gcd(c, c')."""
    chain = [c, _primitive(_int_derivative(c))]
    while True:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            return chain
        chain.append(_primitive([-v for v in r]))


def _variations(chain: list[list[int]], x: tuple[int, int]) -> tuple[int, int]:
    """Sign changes along the chain at x (zeros skipped), and the sign of its head there."""
    signs = [_sign_at(c, x) for c in chain]
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:])), signs[0]


def _interval(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo) + 0.0, float(hi) + 0.0  # a -0.0 end, returned as a root, is +0.0
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("root isolation requires finite lo < hi")
    return lo, hi


@functools.lru_cache(maxsize=256)
def _chain(p: Polynomial) -> tuple[list[int], list[int], list[list[int]]]:
    """p as primitive integers, its square-free part q, and q's Sturm chain.

    For square-free q, the number of distinct roots in (a, b] is the chain's
    sign changes at a minus those at b (Sturm), at any points a < b.  Kept
    per polynomial, since the assumption checks ask about the same F, f,
    g' and g'' at every eps; callers read the lists and never change them.
    """
    c = _primitive(list(reversed(p.num)))
    if len(c) == 1:
        return c, c, [c]
    chain = _sturm(c)
    if len(chain[-1]) == 1:
        return c, c, chain
    q = _primitive(_pseudo_divmod(c, chain[-1])[0])  # c / gcd(c, c'): exact
    return c, q, _sturm(q)


class _Isolation(NamedTuple):
    """The distinct roots of p on [lo, hi], each in an open bracket of its own.

    ``brackets`` holds one (a, b, sb) per root in (lo, hi), in order: the
    root is the only one in (a, b) and q has sign sb just left of b.  No
    bracket end is a root except lo and hi, which ``at_lo``/``at_hi`` flag.
    """

    p: list[int]
    q: list[int]
    brackets: list[tuple]
    at_lo: bool
    at_hi: bool


def _isolate(p: Polynomial, lo: float, hi: float) -> _Isolation:
    c, q, chain = _chain(p)
    lo, hi = _dyadic(lo), _dyadic(hi)
    va, s_lo = _variations(chain, lo)
    vb, s_hi = _variations(chain, hi)
    sb = s_hi
    if s_hi == 0:  # count roots in (lo, hi), hi excluded
        vb, sb = vb + 1, _side_sign(q, hi, -1)
    brackets = []
    stack = [(lo, va, hi, vb, sb)]
    while stack:
        a, va, b, vb, sb = stack.pop()
        if va - vb == 1:
            brackets.append((a, b, sb))
        elif va - vb > 1:
            m = _midpoint(a, b)
            vm, sm = _variations(chain, m)
            while sm == 0:  # split only at points that are not roots
                m = _midpoint(a, m)
                vm, sm = _variations(chain, m)
            stack.append((m, vm, b, vb, sb))
            stack.append((a, va, m, vm, sm))
    return _Isolation(c, q, brackets, s_lo == 0, s_hi == 0)


def _nearest_root(q: list[int], a: tuple[int, int], b: tuple[int, int], sb: int) -> float:
    """The float nearest the one root r of q in (a, b), ties to the lower; +0.0 for zero.

    q has sign sb just left of b, so sb on (r, b) and -sb on (a, r): r
    is simple, as q is square-free.  Exact bisection keeps r in (a, b],
    with sign sb on (r, b), until a and b round to one float, which is
    r's, or to two adjacent floats, where the sign at their midpoint
    decides.  A midpoint that is r ends the bisection: a moves below r by
    less than half of any gap between floats, so a rounds to r's nearest
    float, or to the lower one where r is a tie.
    """
    while True:
        below, above = a[0] / (1 << a[1]), b[0] / (1 << b[1])  # int division rounds correctly
        if below == above:
            return below + 0.0
        if above == math.nextafter(below, math.inf):
            mid = _midpoint(_dyadic(below), _dyadic(above))
            if _cmp(mid, a) <= 0:
                return above + 0.0
            if _cmp(mid, b) >= 0:
                return below + 0.0
            return (below if _sign_at(q, mid) in (0, sb) else above) + 0.0
        m = _midpoint(a, b)
        s = _sign_at(q, m)
        if s == 0:  # r = m; a = m - 2**-(e + 1076), nearer than half the least float gap
            a, b = ((m[0] << 1076) - 1, m[1] + 1076), m
        elif s == sb:
            b = m
        else:
            a = m


def real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All distinct real roots of ``p`` in [lo, hi], sorted, one float each.

    The roots are isolated exactly, so the list has one entry per distinct
    root, whatever its multiplicity or its distance to the next one.  Each
    entry is the float nearest its root (ties to the lower), a zero +0.0.

    Raises:
        ValueError: for the zero polynomial, or if lo < hi fails or either
            is not finite.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    lo, hi = _interval(lo, hi)
    iso = _isolate(p, lo, hi)
    inner = [_nearest_root(iso.q, a, b, sb) for a, b, sb in iso.brackets]
    return [lo] * iso.at_lo + inner + [hi] * iso.at_hi


def signs_on(p: Polynomial, lo: float, hi: float) -> set[int]:
    """Every sign (-1, 0, 1) that p takes on (lo, hi], decided exactly; empty for p == 0.

    0 is in the set when p has a root in (lo, hi], so p > 0 there exactly
    when the set is {1}.  p has one sign on each open piece between
    consecutive roots.  The pieces at lo and hi are read from the first
    derivative that does not vanish there, the others at a bracket end,
    which is never a root.
    """
    lo, hi = _interval(lo, hi)
    if p.is_zero:
        return set()
    iso = _isolate(p, lo, hi)
    c = iso.p
    return ({_side_sign(c, _dyadic(lo), 1), _side_sign(c, _dyadic(hi), -1)}
            | {_sign_at(c, b) for _, b, _ in iso.brackets[:-1]}
            | ({0} if iso.brackets or iso.at_hi else set()))


def extreme_values(p: Polynomial, lo: float, hi: float) -> list[float]:
    """p at lo, hi and the roots of p' between: its extrema on [lo, hi] are among them."""
    pts = [lo, hi]
    dp = p.derivative()
    if dp.degree is not None and dp.degree >= 1:
        pts += real_roots(dp, lo, hi)
    return [p(t) for t in pts]
