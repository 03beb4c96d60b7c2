"""The curvature function's invariance identity, and the slow branch.

The curvature function phi is det(acceleration, velocity) along the
flow; its zero set is a first-order (in eps) approximation of the slow
invariant manifold.  For the Lienard field it collapses to closed
polynomial forms: phi and its rate are fields of ``system.jet``, and
``lie_residual`` checks the invariance identity on a jet.  Setting phi
to zero at fixed x gives a quadratic in u = y - F(x):

    g'(x) u**2 + f(x) g(x) u + eps g(x)**2 = 0.

The smaller-|u| root is the slow branch (it reduces to the critical
manifold as eps -> 0); the other root is a spurious companion branch at
distance ~ f*g/g'.  No tolerance decides a case: a fold is where f(x)
evaluates to 0, the linear limit where g'(x) does.  The branch solver
reads F, f, g and g' from one call of the system's compiled evaluator
(``sys.values``), and the branch table is a list of plain NamedTuple rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .system import Jet, LienardSystem


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
    fold_excluded is True and no branch is reported.  A negative discriminant also yields no branches
    but is not a fold.  Where g'(x) evaluates to 0 the quadratic is
    linear and u_fast is None.
    """

    x: float
    u_slow: float | None
    u_fast: float | None
    y_slow: float | None
    fold_excluded: bool


def slow_branches(sys: LienardSystem, x: float) -> ManifoldBranch:
    """Solve g'(x) u**2 + f(x)g(x) u + eps g(x)**2 = 0 for the branches.

    The quadratic is solved in the cancellation-safe form
    q = -(b + sign(b) sqrt(disc))/2, roots q/a and c/q, which keeps the
    small (slow) root accurate at small eps.  With a = g'(x) = 0, q = -b
    and c/q is the linear root -eps*g/f.
    """
    eps = sys.eps
    Fx, fx, _, gx, gpx, _, _ = sys.values(x)
    if fx == 0.0:
        return ManifoldBranch(x, None, None, None, True)
    b = fx * gx
    c = eps * gx * gx
    disc = b * b - 4.0 * gpx * c
    if disc < 0.0:
        return ManifoldBranch(x, None, None, None, False)
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    r2 = c / q if q != 0.0 else 0.0
    if gpx == 0.0:
        return ManifoldBranch(x, r2, None, Fx + r2, False)
    r1 = q / gpx
    u_slow, u_fast = (r1, r2) if abs(r1) <= abs(r2) else (r2, r1)
    return ManifoldBranch(x, u_slow, u_fast, Fx + u_slow, False)


def slow_manifold_table(
    sys: LienardSystem, x_lo: float, x_hi: float, n: int
) -> list[ManifoldBranch]:
    """n equally spaced slow_branches samples over [x_lo, x_hi].

    A row holding inf or nan (float overflow) raises ValueError naming x.
    """
    if not x_lo < x_hi:
        raise ValueError("slow_manifold_table requires x_lo < x_hi")
    if n < 2:
        raise ValueError("slow_manifold_table requires n >= 2")
    step = (x_hi - x_lo) / (n - 1)
    rows = [slow_branches(sys, x_lo + i * step) for i in range(n)]
    for x, _, u_fast, y_slow, _ in rows:
        # One test a row: 0.0 * v is 0.0 for a finite v and nan otherwise,
        # and y_slow = F(x) + u_slow carries an overflow of either.
        if not math.isfinite(x + 0.0 * (y_slow or 0.0) + 0.0 * (u_fast or 0.0)):
            raise ValueError(f"the slow-branch row at x={x!r} overflows float range")
    return rows


MANIFOLD_CSV_HEADER = "x,y_slow,u_slow,u_fast,fold_excluded"


def format_manifold_csv(rows: "list[ManifoldBranch]") -> str:
    """CSV for a branch table; floats use round-trip (repr) formatting, None is empty."""
    lines = [MANIFOLD_CSV_HEADER]
    for x, u_slow, u_fast, y_slow, fold_excluded in rows:
        lines.append(
            f"{x!r},{'' if y_slow is None else repr(y_slow)},"
            f"{'' if u_slow is None else repr(u_slow)},"
            f"{'' if u_fast is None else repr(u_fast)},"
            f"{'true' if fold_excluded else 'false'}"
        )
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
