"""Generalized Lienard system model, the derivative jet, and assumption checks.

The model is the planar two-timescale system

    eps * dx/dt = y - F(x),      dy/dt = -g(x)

with polynomial F and g.  A system holds eps, F, g and G (an
antiderivative of g).  When it is built it derives f = F', f', g' and
g'' once, and compiles one evaluator of all seven: ``sys.values(x)``
returns (F, f, f', g, g', g'', G) at x from straight-line Horner code
without zero terms, generated once per zero pattern of the seven
polynomials' coefficients and bound to the system's coefficients.
Every value is bit-identical to ``Polynomial.__call__``.

``jet_at`` is the one point evaluator.  It calls ``values`` once at a
point (x, y), and every closed form downstream (velocity, curvature, energy,
the paper's identities, the sign checks and the CSV columns) is a field
of the jet or an expression in its fields.  The slow-branch solver reads
the same evaluator at a bare abscissa.  ``jet`` reads a ``State``;
the trajectory CSV writer calls ``jet_at`` on its float columns.

Every record in the package is a ``typing.NamedTuple``: immutable, with
its fields in a fixed order, compared and printed by them.
``LienardSystem`` extends the idiom with a validating ``__new__``.
"""

from __future__ import annotations

import functools
from sys import float_info
from typing import NamedTuple

from .poly import (Polynomial, coefficient_names, compile_factory, extreme_values,
                   horner_source, real_roots, signs_on)


class State(NamedTuple):
    """A trajectory sample (t, x, y)."""

    t: float
    x: float
    y: float


@functools.cache
def _evaluator_factory(patterns: "tuple[tuple[bool, ...], ...]"):
    """Compile the evaluator factory for polynomials with these zero patterns.

    patterns[i][k] tells whether coefficient k (descending by degree) of
    polynomial i of F, f, fp, g, gp, gpp, G (Jet's first seven fields) is
    nonzero.
    factory(nonzero F coefficients..., f ..., ..., G ...), each list
    descending by degree, returns values(x), which returns
    (F, f, fp, g, gp, gpp, G) at x.  Each value is a straight-line Horner
    expression (poly.horner_source), so it is bit-identical to
    Polynomial.__call__ at every finite x.
    """
    names = [coefficient_names(pattern, p) for p, pattern in zip(Jet._fields[:7], patterns)]
    return compile_factory(
        [c for cs in names for c in cs if c],
        ["    def values(x):",
         f"        return {', '.join(horner_source(cs, 'x') for cs in names)}",
         "    return values"],
        f"evaluator {'-'.join(map(str, map(len, patterns)))}")


class _LienardFields(NamedTuple):
    eps: float
    F: Polynomial
    g: Polynomial
    G: Polynomial


class LienardSystem(_LienardFields):
    """The system eps*xdot = y - F(x), ydot = -g(x) with cached derivatives.

    The fields are what the caller gives: eps, F, g and G.  Construction
    validates eps (a finite positive number, not a bool; stored as a
    float) and G' = g.  The integration constant of G is free here
    (make_system pins G(0) = 0); constructing with a shifted G is how
    quadratic-potential families with nonzero offset are modelled.
    Construction then derives f = F', fp = f', gp = g' and gpp = g'' once
    and binds ``values``, the compiled evaluator of the seven polynomials
    (see _evaluator_factory).  These five are attributes, not fields, so
    equality and repr see only the four fields.  Instances are immutable,
    and ``_replace`` builds through the same validation.
    """

    f: Polynomial
    fp: Polynomial
    gp: Polynomial
    gpp: Polynomial

    def __new__(cls, eps, F, g, G):
        if not (isinstance(eps, (int, float)) and eps > 0):
            raise ValueError("eps must be positive")
        if isinstance(eps, bool) or not eps <= float_info.max:
            raise ValueError(f"eps must be a finite number, not {eps!r}")
        if G.derivative() != g:
            raise ValueError("G must be an antiderivative of g")
        self = super().__new__(cls, float(eps), F, g, G)
        f, gp = F.derivative(), g.derivative()
        fp, gpp = f.derivative(), gp.derivative()
        polys = (F, f, fp, g, gp, gpp, G)
        factory = _evaluator_factory(tuple(tuple(map(bool, p.desc)) for p in polys))
        vars(self).update(f=f, fp=fp, gp=gp, gpp=gpp,
                          values=factory(*(c for p in polys for c in p.desc if c)))
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so ``_replace`` validates and compiles again."""
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"LienardSystem is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LienardSystem is immutable: cannot delete {name!r}")


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
    return LienardSystem(eps, F, g, g.antiderivative(0.0) if G is None else G)


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
    """The jet at state s (see jet_at)."""
    return jet_at(sys, s.x, s.y)


def jet_at(sys: LienardSystem, x: float, y: float) -> Jet:
    """Evaluate F, f, f', g, g', g'' and G at x in one evaluator call; derive the jet at (x, y).

    Third derivatives apply the Jacobian J = [[-f/eps, 1/eps], [-g', 0]]
    to the acceleration and add dJ/dt = [[-f'*xdot/eps, 0], [-g''*xdot, 0]]
    applied to the velocity, expanded entrywise.
    """
    eps = sys.eps
    Fx, fx, fpx, gx, gpx, gppx, Gx = sys.values(x)
    xdot = (y - Fx) / eps
    ydot = -gx
    xddot = (ydot - fx * xdot) / eps
    yddot = -gpx * xdot
    xdddot = (-fx / eps) * xddot + (1.0 / eps) * yddot + (-fpx * xdot / eps) * xdot
    ydddot = -gpx * xddot + (-gppx * xdot) * xdot
    return Jet(
        Fx, fx, fpx, gx, gpx, gppx, Gx,
        xdot, ydot, xddot, yddot, xdddot, ydddot,
        xddot * ydot + gpx * xdot * xdot,  # phi
        xdddot * ydot - ydddot * xdot,  # phi_dot
        eps * xdot * xdot / 2.0 + Gx,  # E
        -fx * xdot * xdot,  # dEdt
        gx * gx - 2.0 * Gx * gpx,  # H
        -2.0 * Gx * gppx * xdot,  # dHdt
    )


class AssumptionCheck(NamedTuple):
    holds: bool
    witness: float | None
    detail: str


class AssumptionReport(NamedTuple):
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


def positive_zeros_of_F(sys: LienardSystem, x_max: float = 10.0) -> list[float]:
    """The zeros of F in (0, x_max]; assumption IV asks for exactly one."""
    if sys.F.is_zero:
        return []
    return [r for r in real_roots(sys.F, 0.0, x_max) if r > 0.0]


def check_assumptions(sys: LienardSystem, x_max: float = 10.0) -> AssumptionReport:
    """Check the classical limit-cycle assumptions on [-x_max, x_max].

    Parity and growth are decided exactly from the coefficients, and the
    sign conditions by the exact sign sets of poly.signs_on.
    Failures are reported, never raised.
    """
    if not x_max > 0:
        raise ValueError("x_max must be positive")
    f, g, F = sys.f, sys.g, sys.F

    # I: f even, g odd, x*g(x) > 0 for x != 0, f(0) < 0.
    problems = []
    f_even = not any(f.num[1::2])
    if not f_even:
        problems.append("f has a non-zero odd-degree coefficient (not even)")
    if g.is_zero:
        problems.append("g is identically zero")
    elif any(g.num[0::2]):
        problems.append("g has a non-zero even-degree coefficient (not odd)")
    elif signs_on(g, 0.0, x_max) != {1}:
        problems.append("x*g(x) <= 0 somewhere in (0, x_max]")
    f0 = f(0.0)
    if not (f.num and f.num[0] < 0):  # the exact sign of f(0)
        problems.append(f"f(0) = {f0} is not negative")
    rep_I = AssumptionCheck(
        holds=not problems,
        witness=f0,
        detail="; ".join(problems) if problems else "f even, g odd, x*g > 0, f(0) < 0",
    )

    # II: polynomials are continuous and Lipschitz on any bounded window;
    # the Lipschitz constant of g on [-x_max, x_max] is informational.
    lip = max(map(abs, extreme_values(sys.gp, -x_max, x_max)))
    rep_II = AssumptionCheck(
        holds=True,
        witness=lip,
        detail=f"polynomials are locally Lipschitz; |g'| <= {lip:.6g} on the window",
    )

    # III: F -> +-inf with x  <=>  odd leading degree, positive leading coeff.
    deg = F.degree
    lead = F.coeffs[-1] if not F.is_zero else 0.0
    ok_III = deg is not None and deg % 2 == 1 and F.num[-1] > 0
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
            # f >= 0 on (a, x_max], with a the float nearest the zero: f is
            # not the zero polynomial, so its zeros are isolated and F is
            # strictly increasing there
            ok_IV = a == x_max or -1 not in signs_on(f, a, x_max)
            detail_IV = (f"single positive zero a = {a:.9g}, F monotone increasing beyond it"
                         if ok_IV else f"F is not monotone increasing on [a, {x_max}]")
    rep_IV = AssumptionCheck(holds=ok_IV, witness=a, detail=detail_IV)

    # Separate flag: g' >= 0 on [0, x_max] (required by the sign propositions
    # but listed outside the four assumptions), decided exactly; the float
    # minimum is the witness.
    gp_min = min(extreme_values(sys.gp, 0.0, x_max))
    rep_gp = AssumptionCheck(
        holds=-1 not in signs_on(sys.gp, 0.0, x_max),
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
