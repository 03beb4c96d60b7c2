"""The curvature function's invariance identity, and the slow branch.

The curvature function phi is det(acceleration, velocity) along the
flow; its zero set is a first-order (in eps) approximation of the slow
invariant manifold.  For the Lienard field it collapses to closed
polynomial forms: phi and its rate are fields of ``system.jet``, and
``lie_residual`` checks the invariance identity on a jet.  Setting phi
to zero at fixed x gives a quadratic in u = y - F(x):

    g'(x) u**2 + f(x) g(x) u + eps g(x)**2 = 0.

g divides out: u = g(x) w with g' w**2 + f w + eps = 0, whose
discriminant f**2 - 4 eps g' decides whether a branch exists.  The
smaller-|u| root is the slow branch, u ~ -eps g/f (it reduces to the
critical manifold as eps -> 0); the other root is a spurious companion
branch at distance ~ f*g/g'.  No tolerance decides a case: a fold is
where f(x) evaluates to 0, the linear limit where g'(x) does.

The solver's steps are one straight body, _BRANCH_TEMPLATE, written
once and used as written: it assigns the row's values, and each solver
compiled from it adds only what it does with them.  ``slow_branches``
is compiled when this module loads; it reads F, f, g and g' from one
call of the system's compiled evaluator (``sys.values``) and returns a
NamedTuple row.  The one slow-manifold table, ``format_manifold_csv``,
is compiled on first use once per zero pattern of F, f, g and g', the
polynomials it reads (system.compile_writer): one loop over the grid
with inline Horner code for those four, the body, one overflow test and
one appended line, without a per-row call, record or second pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .poly import compile_factory
from .system import POLYNOMIALS, Jet, LienardSystem, compile_writer


def lie_residual(eps: float, j: Jet) -> float:
    """Residual of dphi/dt = trace(J)*phi + det((dJ/dt) Xdot, Xdot) at a jet.

    This is the invariance (cofactor) identity of the curvature zero set;
    it holds algebraically, so the residual is floating-point noise:
    |residual| <= 1e-9 * max(1, |dphi/dt|) at every finite state.
    """
    xd = j.xdot
    tr = -j.f / eps
    w0 = (-j.fp * xd / eps) * xd
    w1 = (-j.gpp * xd) * xd
    det = w0 * j.ydot - w1 * xd
    return j.phi_dot - (tr * j.phi + det)


class ManifoldBranch(NamedTuple):
    """Roots of the curvature quadratic in u = y - F(x) at one abscissa.

    When both branches exist, |u_slow| <= |u_fast|.  At a fold, where
    f(x) evaluates to 0, real roots would tie in size, so neither is slow:
    fold_excluded is True and no branch is reported.  A negative
    discriminant f**2 - 4 eps g' also yields no branches but is not a
    fold; where g(x) evaluates to 0 both roots are 0.  Where g'(x)
    evaluates to 0 the quadratic is linear and u_fast is None.
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
# s/2, which rounds to 0 at a subnormal s, is never a divisor.  Where f * f
# overflows (|f| >= 2**512), disc is formed over f**2, dividing g' by f
# before any product, and its root is scaled back by |f|.  A nan disc takes
# the root path, so its row is refused.  Where g is 0, both roots u = g w
# are zeros whatever the sign of disc, signed as g times w: w_slow has the
# sign of -f, w_fast that of -f g'.  Signs alone form them, since a w that
# overflows would make g w the nan 0 * inf.
_BRANCH_TEMPLATE = """\
u_slow = u_fast = y_slow = None
fold = f == 0.0
if fold:
    pass
elif g == 0.0:
    u_slow = g * copysign(1.0, -f)
    if gp != 0.0:
        u_fast = u_slow * copysign(1.0, gp)
else:
    if abs(f) < 2.0 ** 512:
        scale, disc = 1.0, f * f - 4.0 * eps * gp
    else:
        scale, disc = abs(f), 1.0 - gp / f * 4.0 * eps / f
    if not disc < 0.0:
        s = f + copysign(scale * sqrt(disc), f)
        u_slow = g * (-2.0 * eps / s)
        if gp != 0.0:
            u_fast = g * (-s / 2.0 / gp)
            if not abs(u_slow) <= abs(u_fast):
                u_slow, u_fast = u_fast, u_slow
if u_slow is not None:
    y_slow = F + u_slow"""
_BRANCH_ENV = {"sqrt": math.sqrt, "copysign": math.copysign}


slow_branches = compile_factory([], [
    "    def slow_branches(sys, x):",
    "        eps = sys.eps",
    f"        {', '.join(POLYNOMIALS)} = sys.values(x)",
    *(f"        {line}" for line in _BRANCH_TEMPLATE.splitlines()),
    "        return ManifoldBranch(x, u_slow, u_fast, y_slow, fold)",
    "    return slow_branches"], "slow_branches",
    {**_BRANCH_ENV, "ManifoldBranch": ManifoldBranch, "__name__": __name__})()
slow_branches.__doc__ = """The ManifoldBranch of g'(x) u**2 + f(x)g(x) u + eps g(x)**2 = 0 at x.

    One sys.values call, then _BRANCH_TEMPLATE's steps.
    """


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
    lambda: [*_BRANCH_TEMPLATE.splitlines(), *_CSV_ROW], MANIFOLD_CSV_HEADER, "manifold csv",
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
