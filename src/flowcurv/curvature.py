"""The slow branch of the curvature function's zero set.

The curvature function phi is det(acceleration, velocity) along the
flow; its zero set is a first-order (in eps) approximation of the slow
invariant manifold.  For the Lienard field it collapses to closed
polynomial forms: phi, its rate and the residual of the zero set's
invariance identity are fields of ``system.jet``.  Setting phi to zero
at fixed x gives a quadratic in u = y - F(x):

    g'(x) u**2 + f(x) g(x) u + eps g(x)**2 = 0.

g divides out: u = g(x) w with g' w**2 + f w + eps = 0, whose
discriminant f**2 - 4 eps g' decides whether a branch exists.  The
smaller-|u| root is the slow branch, u ~ -eps g/f (it reduces to the
critical manifold as eps -> 0); the other root is a spurious companion
branch at distance ~ f*g/g'.  No tolerance decides a case: a fold is
where f(x) evaluates to 0, the linear limit where g'(x) does.

The solver's steps are one straight body, _BRANCH_TEMPLATE, written
once and used as written: it assigns the row's values, and each solver
built from it adds only what it does with them.  Each is compiled on
first use once per zero pattern of F, f, g and g', the polynomials it
reads, with inline Horner code for those four (system.specialized).
``slow_branches`` is the system's unit that returns the body's values
at x as a NamedTuple row.  The one slow-manifold table,
``format_manifold_csv``, is one loop over the grid
(system.compile_writer) running the body, one overflow test and one
appended line, without a per-row call, record or second pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .system import LienardSystem, compile_writer, specialized


class ManifoldBranch(NamedTuple):
    """Roots of the curvature quadratic in u = y - F(x) at one abscissa.

    When both branches exist, |u_slow| <= |u_fast|.  At a fold, where
    f(x) evaluates to 0, real roots would tie in size, so neither is slow:
    fold_excluded is True and no branch is reported.  A negative
    discriminant f**2 - 4 eps g' also yields no branches but is not a
    fold; where g(x) evaluates to 0 both roots are 0.  Where g'(x)
    evaluates to 0 the quadratic is linear and u_fast is None.  Where
    g'(x) is not finite (and neither f(x) nor g(x) is 0), u_slow, u_fast
    and y_slow are nan: the float values cannot decide the branch.
    """

    x: float
    u_slow: float | None
    u_fast: float | None
    y_slow: float | None
    fold_excluded: bool


# The branch solver's steps over eps, x and the values F, f, g, gp at x: a
# straight body that assigns the row's u_slow, u_fast, y_slow and fold, None
# for a missing value; slow_branches returns them as a record and the
# manifold writer appends them as a CSV line.  With u = g w the quadratic is
# g' w**2 + f w + eps = 0, solved in the cancellation-safe form
# s = f + sign(f) sqrt(disc) with disc = f**2 - 4 eps g':
# u_slow = g (-2 eps/s) and u_fast = g (-s/2/g').  With g' = 0, s = 2f
# and -2 eps/s is the linear root -eps/f.  s is not 0 where f is not, and
# s/2, which rounds to 0 at a subnormal s, is never a divisor.  Where disc
# is +inf or nan (f * f or -4 eps g' overflows), it is formed again over
# scale**2, dividing g' by scale before any product, and its root is
# scaled back by scale: |f| where f * f overflows (|f| >= 2**512), else
# the larger of |f| and 2 sqrt(eps |g'|).  A disc of -inf is negative as
# it stands.  A nan disc takes the root path, so its row is refused.
# Where g' is not finite (and g is not 0), no float disc decides whether a
# branch exists (a g' of +inf reads as disc = -inf, no branch, though the
# exact branch may be finite): both roots are nan, a row the writer
# refuses.  A g that is not finite needs no test: disc does not read it,
# and a root g w that it makes inf or nan is refused as it stands.
# Where g is 0, both roots u = g w are zeros whatever the sign of disc,
# signed as g times w: w_slow has the sign of -f, w_fast that of -f g'.
# Signs alone form them, since a w that overflows would make g w the nan
# 0 * inf.
_BRANCH_TEMPLATE = """\
u_slow = u_fast = y_slow = None
fold = f == 0.0
if fold:
    pass
elif g == 0.0:
    u_slow = g * copysign(1.0, -f)
    if gp != 0.0:
        u_fast = u_slow * copysign(1.0, gp)
elif not gp - gp == 0.0:
    u_slow = u_fast = nan
else:
    scale, disc = 1.0, f * f - 4.0 * eps * gp
    if not disc < inf:
        scale = abs(f)
        if scale < 2.0 ** 512:
            scale = max(scale, 2.0 * sqrt(eps) * sqrt(abs(gp)))
        disc = (f / scale) ** 2 - gp / scale * 4.0 * eps / scale
    if not disc < 0.0:
        s = f + copysign(scale * sqrt(disc), f)
        u_slow = g * (-2.0 * eps / s)
        if gp != 0.0:
            u_fast = g * (-s / 2.0 / gp)
            if not abs(u_slow) <= abs(u_fast):
                u_slow, u_fast = u_fast, u_slow
if u_slow is not None:
    y_slow = F + u_slow"""
_BRANCH_ENV = {"sqrt": math.sqrt, "copysign": math.copysign, "inf": math.inf,
               "nan": math.nan}


# The polynomial values the body reads, then the body: the lines of every
# solver built from _BRANCH_TEMPLATE but the vicinity scan, which evaluates
# f, g and g' only where it needs them.
_BRANCH_LINES = ["F = F(x)", "f = f(x)", "g = g(x)", "gp = gp(x)",
                 *_BRANCH_TEMPLATE.splitlines()]

_branch = specialized(
    "slow_branches(x)",
    lambda: [*_BRANCH_LINES, "return ManifoldBranch(x, u_slow, u_fast, y_slow, fold)"],
    "slow branches", {**_BRANCH_ENV, "ManifoldBranch": ManifoldBranch})


def slow_branches(sys: LienardSystem, x: float) -> ManifoldBranch:
    """The ManifoldBranch of g'(x) u**2 + f(x)g(x) u + eps g(x)**2 = 0 at x.

    _BRANCH_TEMPLATE's steps in the system's unit (see system.specialized).
    """
    return _branch(sys)(x)


def _grid_step(x_lo: float, x_hi: float, n: int) -> float:
    """The step of n equally spaced abscissas over [x_lo, x_hi], or ValueError."""
    if not x_lo < x_hi:
        raise ValueError(f"x_lo={x_lo!r} must be less than x_hi={x_hi!r}")
    if n < 2:
        raise ValueError(f"n={n!r} must be at least 2")
    step = (x_hi - x_lo) / (n - 1)
    if not math.isfinite(step):
        raise ValueError(f"the x range [{x_lo!r}, {x_hi!r}] is wider than float range")
    return step


def _overflow(x: float) -> ValueError:
    return ValueError(f"the slow-branch row at x={x!r} overflows float range")


MANIFOLD_CSV_HEADER = "x,y_slow,u_slow,u_fast,fold_excluded"


# The manifold writer's row after _BRANCH_TEMPLATE.  A row holding inf or
# nan raises, tested without a call: y_slow = F(x) + u_slow carries an
# overflow of either, and 0.0 times a value equals 0.0 exactly when the
# value is finite (`or 0.0` stands in for None).  Cells are repr of their
# floats, empty for None.
_CSV_ROW = [
    "if not (y_slow or 0.0) * 0.0 == (u_fast or 0.0) * 0.0:",
    "    raise _overflow(x)",
    "append(f\"{x!r},{'' if y_slow is None else f'{y_slow!r}'},"
    "{'' if u_slow is None else f'{u_slow!r}'},{'' if u_fast is None else f'{u_fast!r}'},"
    "{'true' if fold else 'false'}\")"]

_manifold_writer = compile_writer(
    "x_lo, step, n", ["for i in range(n):", "    x = x_lo + i * step"],
    lambda: [*_BRANCH_LINES, *_CSV_ROW], MANIFOLD_CSV_HEADER, "manifold csv",
    {**_BRANCH_ENV, "_overflow": _overflow})


def format_manifold_csv(sys: LienardSystem, x_lo: float, x_hi: float, n: int) -> str:
    """slow_branches at n equally spaced x over [x_lo, x_hi], as CSV text.

    The rows are bit for bit slow_branches's, from _BRANCH_TEMPLATE's
    steps in the system's compiled writer.  Floats use round-trip (repr)
    formatting, None is an empty cell.  A bad range raises ValueError
    naming x_lo, x_hi or n, a step that overflows float range one naming
    the range, and a row holding inf or nan one naming x.
    """
    return _manifold_writer(sys)(x_lo, _grid_step(x_lo, x_hi, n), n)
