"""Generalized Lienard system model, the derivative jet, and assumption checks.

The model is the planar two-timescale system

    eps * dx/dt = y - F(x),      dy/dt = -g(x)

with polynomial F and g.  The derived family f = F', f', G (an
antiderivative of g), g' and g'' is cached on the system, and ``jet``
evaluates those seven polynomials once at a state: every closed form
downstream (curvature, energy, sign checks, CSV columns) is an expression
in its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .poly import Polynomial, extreme_values, real_roots


class State(NamedTuple):
    """A trajectory sample (t, x, y)."""

    t: float
    x: float
    y: float


@dataclass(frozen=True)
class LienardSystem:
    """The system eps*xdot = y - F(x), ydot = -g(x) with cached derivatives.

    Construction validates internal consistency: f = F', fp = f', gp = g',
    gpp = gp', and G' = g.  The integration constant of G is free here
    (make_system pins G(0) = 0); constructing with a shifted G is how
    quadratic-potential families with nonzero offset are modelled.
    """

    eps: float
    F: Polynomial
    f: Polynomial
    fp: Polynomial
    g: Polynomial
    G: Polynomial
    gp: Polynomial
    gpp: Polynomial

    def __post_init__(self):
        if not (isinstance(self.eps, (int, float)) and self.eps > 0):
            raise ValueError("epsilon must be positive")
        pairs = [
            (self.f, self.F.derivative(), "f must equal F'"),
            (self.fp, self.f.derivative(), "fp must equal f'"),
            (self.gp, self.g.derivative(), "gp must equal g'"),
            (self.gpp, self.gp.derivative(), "gpp must equal g''"),
            (self.G.derivative(), self.g, "G must be an antiderivative of g"),
        ]
        for got, want, msg in pairs:
            if got != want:
                raise ValueError(msg)


def make_system(
    F: Polynomial | "list[float]",
    g: Polynomial | "list[float]",
    eps: float,
    G: Polynomial | None = None,
) -> LienardSystem:
    """Build a LienardSystem from F, g and eps.

    G defaults to the antiderivative of g with G(0) = 0; pass an explicit
    G (any antiderivative of g) to shift the potential's constant.
    """
    F = F if isinstance(F, Polynomial) else Polynomial(F)
    g = g if isinstance(g, Polynomial) else Polynomial(g)
    if not (isinstance(eps, (int, float)) and eps > 0):
        raise ValueError("epsilon must be positive")
    f = F.derivative()
    gp = g.derivative()
    if G is None:
        G = g.antiderivative(0.0)
    return LienardSystem(
        eps=float(eps), F=F, f=f, fp=f.derivative(),
        g=g, G=G, gp=gp, gpp=gp.derivative(),
    )


def vector_field(sys: LienardSystem, s: State) -> tuple[float, float]:
    """(xdot, ydot) = ((y - F(x))/eps, -g(x)) at the state."""
    return (s.y - sys.F(s.x)) / sys.eps, -sys.g(s.x)


class Jet(NamedTuple):
    """The seven polynomial values at x and every closed form built on them.

    phi = det(Xddot, Xdot) is the curvature function, E = eps*xdot**2/2 + G
    the energy, H = g**2 - 2*G*g' the case function; the *dot/*dt fields
    are time derivatives along the flow.
    """

    F: float
    f: float
    fp: float
    g: float
    gp: float
    gpp: float
    G: float
    xdot: float
    ydot: float
    xddot: float
    yddot: float
    xdddot: float
    ydddot: float
    phi: float
    phi_dot: float
    E: float
    dEdt: float
    H: float
    dHdt: float


def jet(sys: LienardSystem, s: State) -> Jet:
    """Evaluate F, f, f', g, g', g'' and G once each at s and derive the jet.

    Third derivatives apply the Jacobian J = [[-f/eps, 1/eps], [-g', 0]]
    to the acceleration and add dJ/dt = [[-f'*xdot/eps, 0], [-g''*xdot, 0]]
    applied to the velocity, expanded entrywise.
    """
    eps = sys.eps
    x = s.x
    Fx = sys.F(x)
    fx = sys.f(x)
    fpx = sys.fp(x)
    gx = sys.g(x)
    gpx = sys.gp(x)
    gppx = sys.gpp(x)
    Gx = sys.G(x)

    xdot = (s.y - Fx) / eps
    ydot = -gx
    xddot = (ydot - fx * xdot) / eps
    yddot = -gpx * xdot
    xdddot = (-fx / eps) * xddot + (1.0 / eps) * yddot + (-fpx * xdot / eps) * xdot
    ydddot = -gpx * xddot + (-gppx * xdot) * xdot
    return Jet(
        Fx, fx, fpx, gx, gpx, gppx, Gx,
        xdot, ydot, xddot, yddot, xdddot, ydddot,
        phi=xddot * ydot + gpx * xdot * xdot,
        phi_dot=xdddot * ydot - ydddot * xdot,
        E=eps * xdot * xdot / 2.0 + Gx,
        dEdt=-fx * xdot * xdot,
        H=gx * gx - 2.0 * Gx * gpx,
        dHdt=-2.0 * Gx * gppx * xdot,
    )


# A 2x2 matrix as a tuple of rows.
Matrix2 = tuple[tuple[float, float], tuple[float, float]]


def jacobian(sys: LienardSystem, x: float) -> Matrix2:
    """Jacobian of the vector field, by rows: ((-f(x)/eps, 1/eps), (-g'(x), 0))."""
    return ((-sys.f(x) / sys.eps, 1.0 / sys.eps),
            (-sys.gp(x), 0.0))


def jacobian_rate(sys: LienardSystem, s: State) -> Matrix2:
    """dJ/dt along the flow, by rows: ((-f'(x)*xdot/eps, 0), (-g''(x)*xdot, 0))."""
    xdot = (s.y - sys.F(s.x)) / sys.eps
    return ((-sys.fp(s.x) * xdot / sys.eps, 0.0),
            (-sys.gpp(s.x) * xdot, 0.0))


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool
    witness: float | None
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    """Results of the four limit-cycle assumptions plus the g' >= 0 flag."""

    assumption_I: AssumptionCheck
    assumption_II: AssumptionCheck
    assumption_III: AssumptionCheck
    assumption_IV: AssumptionCheck
    positive_zero_a: float | None
    gprime_nonneg: AssumptionCheck

    @property
    def all_hold(self) -> bool:
        return (self.assumption_I.holds and self.assumption_II.holds
                and self.assumption_III.holds and self.assumption_IV.holds)


def _deflate_origin(p: Polynomial) -> tuple[Polynomial, int]:
    """Write p = x**m * q with q(0) != 0; returns (q, m)."""
    c = list(p.coeffs)
    m = 0
    while c and c[0] == 0.0:
        c.pop(0)
        m += 1
    return Polynomial(c), m


def positive_zeros_of_F(sys: LienardSystem, x_max: float = 10.0) -> list[float]:
    """The zeros of F in (0, x_max]; assumption IV asks for exactly one."""
    if sys.F.is_zero:
        return []
    Fq, _ = _deflate_origin(sys.F)
    if Fq.degree == 0:
        return []
    return [r for r in real_roots(Fq, 0.0, x_max) if r > 0.0]


def check_assumptions(sys: LienardSystem, x_max: float = 10.0) -> AssumptionReport:
    """Check the classical limit-cycle assumptions on [-x_max, x_max].

    Parity and growth are decided exactly from the coefficients; the
    pointwise positivity conditions are certified by root absence on the
    window plus one sample sign.  Failures are reported, never raised.
    """
    if not x_max > 0:
        raise ValueError("x_max must be positive")
    f, g, F = sys.f, sys.g, sys.F

    # I: f even, g odd, x*g(x) > 0 for x != 0, f(0) < 0.
    problems = []
    f_even = all(c == 0.0 for k, c in enumerate(f.coeffs) if k % 2 == 1)
    if not f_even:
        problems.append("f has a non-zero odd-degree coefficient (not even)")
    g_odd = all(c == 0.0 for k, c in enumerate(g.coeffs) if k % 2 == 0)
    if not (g_odd and not g.is_zero):
        problems.append("g has a non-zero even-degree coefficient (not odd)"
                        if not g.is_zero else "g is identically zero")
    xg_pos = False
    if g_odd and not g.is_zero:
        q, _ = _deflate_origin(g)
        qroots = real_roots(q, 0.0, x_max)
        xg_pos = not qroots and q(x_max / 2) > 0.0
        if not xg_pos:
            problems.append("x*g(x) <= 0 somewhere in (0, x_max]")
    f0 = f(0.0)
    if not f0 < 0.0:
        problems.append(f"f(0) = {f0} is not negative")
    rep_I = AssumptionCheck(
        holds=not problems,
        witness=f0,
        detail="; ".join(problems) if problems else "f even, g odd, x*g > 0, f(0) < 0",
    )

    # II: polynomials are continuous and Lipschitz on any bounded window;
    # the Lipschitz constant of g on [-x_max, x_max] is informational.
    lip = max(map(abs, extreme_values(sys.gp, -x_max, x_max))) if not sys.gp.is_zero else 0.0
    rep_II = AssumptionCheck(
        holds=True,
        witness=lip,
        detail=f"polynomials are locally Lipschitz; |g'| <= {lip:.6g} on the window",
    )

    # III: F -> +-inf with x  <=>  odd leading degree, positive leading coeff.
    deg = F.degree
    lead = F.coeffs[-1] if not F.is_zero else 0.0
    ok_III = deg is not None and deg % 2 == 1 and lead > 0.0
    rep_III = AssumptionCheck(
        holds=ok_III,
        witness=lead,
        detail=("leading term is an odd power with positive coefficient" if ok_III
                else "leading term of F does not grow to +-inf with x"),
    )

    # IV: a single positive zero a of F, and F monotone increasing beyond it.
    a = None
    ok_IV = False
    detail_IV = ""
    if F.is_zero:
        detail_IV = "F is identically zero"
    else:
        pos = positive_zeros_of_F(sys, x_max)
        if len(pos) != 1:
            detail_IV = f"F has {len(pos)} positive zeros in (0, {x_max}]"
        else:
            a = pos[0]
            f_roots = [] if f.is_zero or f.degree == 0 else real_roots(f, a, x_max)
            f_roots = [r for r in f_roots if r > a + 1e-9]
            mono = not f_roots and f((a + x_max) / 2) > 0.0
            ok_IV = mono
            detail_IV = (f"single positive zero a = {a:.9g}, F monotone increasing beyond it"
                         if mono else f"F is not monotone increasing on [a, {x_max}]")
    rep_IV = AssumptionCheck(holds=ok_IV, witness=a, detail=detail_IV)

    # Separate flag: g' >= 0 on [0, x_max] (required by the sign propositions
    # but listed outside the four assumptions).
    gp_min = min(extreme_values(sys.gp, 0.0, x_max)) if not sys.gp.is_zero else 0.0
    rep_gp = AssumptionCheck(
        holds=gp_min >= -1e-12,
        witness=gp_min,
        detail=f"min g' on [0, x_max] = {gp_min:.6g}",
    )

    return AssumptionReport(
        assumption_I=rep_I,
        assumption_II=rep_II,
        assumption_III=rep_III,
        assumption_IV=rep_IV,
        positive_zero_a=a,
        gprime_nonneg=rep_gp,
    )
