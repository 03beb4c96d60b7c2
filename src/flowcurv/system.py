"""Generalized Lienard system model, the derivative jet, and assumption checks.

The model is the planar two-timescale system

    eps * dx/dt = y - F(x),      dy/dt = -g(x)

with polynomial F and g.  A system holds eps, F, g and G (an
antiderivative of g).  When it is built it derives f = F', f', g' and
g'' once, and binds one evaluator of all seven: ``sys.values(x)``
returns (F, f, f', g, g', g'', G) at x, bit-identical to
``Polynomial.__call__``.

Generated code writes a polynomial's value at v as the call P(v), and
``specialized`` alone turns such code into a system's: it expands each
call into Horner code without zero terms, compiles the code on first use
once per zero pattern of the polynomials it calls, and binds it to the
system's coefficients.  The evaluator, the march kernel in ``dynamics``
and both CSV writers are built this way.

The jet's derived quantities (velocity, acceleration, third
derivatives, curvature, energy, H and their rates) are one ordered table
of expressions, JET_FORMULAS, each written once.  Code is generated from
it, never written beside it: ``jet_at``, the one point evaluator, is
compiled from the whole table when this module loads and calls
``values`` once at a point (x, y); every closed form downstream (the
paper's identities, the sign checks) is a field of the jet or an
expression in its fields, and ``energy.H_polynomial`` evaluates the
table's H on the exact polynomials.  ``jet`` reads a ``State``.  ``jet_code``
picks the lines a subset of the fields needs, and ``compile_writer``
builds a CSV writer around them, such as the one in ``dynamics``.

Every record in the package is a ``typing.NamedTuple``: immutable, with
its fields in a fixed order, compared and printed by them.
``LienardSystem`` extends the idiom with a validating ``__new__``.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable
from sys import float_info
from typing import NamedTuple

from .poly import (Polynomial, coefficient_names, compile_factory, extreme_values,
                   horner_source, real_roots, signs_on)


class State(NamedTuple):
    """A trajectory sample (t, x, y)."""

    t: float
    x: float
    y: float


# The seven polynomials of a system, in the order values(x) returns them and
# the jet holds them; the jet and CSV rows name each one's value at x this way.
POLYNOMIALS = ("F", "f", "fp", "g", "gp", "gpp", "G")

# A call P(v), P one of POLYNOMIALS and v a name; re compiles it on first use.
_CALL = rf"\b({'|'.join(POLYNOMIALS)})\((\w+)\)"


def specialized(make_lines, label: str, env: "dict | None" = None):
    """bind(sys): the function that make_lines() builds, for sys.

    make_lines() returns the body of a factory (poly.compile_factory)
    returning the function, in which P(v) is P's value at v (see _CALL).
    On first use one re.split cuts the body at its calls; each compile
    joins the pieces with poly.horner_source over P's nonzero
    coefficients, which, with eps, become the factory's parameters, so
    every value is bit-identical to Polynomial.__call__.  The body
    compiles once per zero pattern (which coefficients are nonzero) of the
    polynomials it calls; bind.cache_info counts compiles.
    """
    @functools.cache
    def source() -> "tuple[list[str], list[str]]":
        # code, P, v, code, P, v, ..., code: each call's name and argument
        parts = re.split(_CALL, "\n".join(make_lines()))
        return parts, [p for p in POLYNOMIALS if p in parts[1::3]]

    @functools.cache
    def factory(patterns: "tuple[tuple[bool, ...], ...]"):
        parts, called = source()
        names = {p: coefficient_names(pattern, p) for p, pattern in zip(called, patterns)}
        return compile_factory(
            [c for cs in names.values() for c in cs if c] + ["eps"],
            [parts[0] + "".join(horner_source(names[p], v) + code for p, v, code
                                in zip(parts[1::3], parts[2::3], parts[3::3]))],
            f"{label} {'-'.join(str(len(pattern)) for pattern in patterns)}", env)

    def bind(sys: "LienardSystem"):
        descs = [getattr(sys, p).desc for p in source()[1]]
        return factory(tuple(tuple(map(bool, d)) for d in descs))(
            *(c for d in descs for c in d if c), sys.eps)

    bind.cache_info = factory.cache_info
    return bind


_evaluator = specialized(lambda: [
    "    def values(x):",
    f"        return {', '.join(f'{p}(x)' for p in POLYNOMIALS)}",
    "    return values"], "evaluator")


def compile_writer(signature: str, loop: "list[str]", row, header: str, label: str,
                   env: "dict | None" = None):
    """bind(sys) for a CSV writer (see specialized).

    The writer, write(<signature>), returns the header line, one line per
    pass of the loop and a final newline, as one text.  loop is the for
    statement and any lines after it that bind x; row() returns the rest
    of the loop body, which reads the polynomials' values at x by name and
    hands each line to ``append``.  Each value it reads is computed inline
    before it, so a pass calls no Python function and builds no record;
    env holds the other names the row reads.
    """
    def lines() -> "list[str]":
        body = row()
        read = compile("\n".join(["for _ in ():", *(f"    {line}" for line in body)]),
                       f"<{label} row>", "exec").co_names
        return [
            f"    def write({signature}):",
            "        lines = [HEADER]",
            "        append = lines.append",
            *(f"        {line}" for line in loop),
            *(f"            {p} = {p}(x)" for p in POLYNOMIALS if p in read),
            *(f"            {line}" for line in body),
            "        append('')  # the final newline, without a second copy of the text",
            "        return '\\n'.join(lines)",
            "    return write"]

    return specialized(lines, label, {**(env or {}), "HEADER": header})


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
    (see specialized).  These five are attributes, not fields, so
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
        vars(self).update(f=f, fp=f.derivative(), gp=gp, gpp=gp.derivative())
        vars(self)["values"] = _evaluator(self)
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


# The jet's derived quantities in evaluation order, each expression written
# once: it reads eps, y, the seven polynomial values at x (named as in
# POLYNOMIALS) and the quantities above it.  The third derivatives apply the
# Jacobian J = [[-f/eps, 1/eps], [-g', 0]] to the acceleration and add
# dJ/dt = [[-f'*xdot/eps, 0], [-g''*xdot, 0]] applied to the velocity,
# expanded entrywise.
JET_FORMULAS = (
    ("xdot", "(y - F) / eps"),
    ("ydot", "-g"),
    ("xddot", "(ydot - f * xdot) / eps"),
    ("yddot", "-gp * xdot"),
    ("xdddot", "(-f / eps) * xddot + (1.0 / eps) * yddot + (-fp * xdot / eps) * xdot"),
    ("ydddot", "-gp * xddot + (-gpp * xdot) * xdot"),
    ("phi", "xddot * ydot + gp * xdot * xdot"),
    ("phi_dot", "xdddot * ydot - ydddot * xdot"),
    ("E", "eps * xdot * xdot / 2.0 + G"),
    ("dEdt", "-f * xdot * xdot"),
    ("H", "g * g - 2.0 * G * gp"),
    ("dHdt", "-2.0 * G * gpp * xdot"),
)

Jet = NamedTuple("Jet", [(name, float)
                         for name in (*POLYNOMIALS, *(name for name, _ in JET_FORMULAS))])
Jet.__doc__ = """The seven polynomial values at x and every closed form built on them.

    phi = det(Xddot, Xdot) is the curvature function, E = eps*xdot**2/2 + G
    the energy, H = g**2 - 2*G*g' the case function; the *dot/*dt fields
    are time derivatives along the flow.  The fields after the seven
    values are JET_FORMULAS's, in its order.
    """


def jet_code(fields: "Iterable[str]") -> "list[str]":
    """The JET_FORMULAS assignments the named jet fields need, in table order."""
    need, lines = set(fields), []
    for name, expr in reversed(JET_FORMULAS):
        if name in need:
            need.update(compile(expr, "<jet>", "eval").co_names)
            lines.append(f"{name} = {expr}")
    return lines[::-1]


def jet(sys: LienardSystem, s: State) -> Jet:
    """The jet at state s (see jet_at)."""
    return jet_at(sys, s.x, s.y)


jet_at = compile_factory([], [
    "    def jet_at(sys, x, y):",
    "        eps = sys.eps",
    f"        {', '.join(POLYNOMIALS)} = sys.values(x)",
    *(f"        {name} = {expr}" for name, expr in JET_FORMULAS),
    f"        return Jet({', '.join(Jet._fields)})",
    "    return jet_at"], "jet_at", {"Jet": Jet, "__name__": __name__})()
jet_at.__doc__ = """The jet at (x, y): one sys.values call, then JET_FORMULAS in order."""


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
