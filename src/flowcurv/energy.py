"""Energy balance, the case function H, and curvature-energy residuals.

The energy along the flow is E = eps*xdot**2/2 + G(x) (kinetic plus
potential) and decays at the closed-form rate dE/dt = -f(x)*xdot**2.
The sign of H = G'**2 - 2*G*G'' splits systems into a sub-linear-g case
(H >= 0, g(x) <= C1*(x + C2)) and a super-linear-g case (H <= 0,
g(x) >= C1*(x + C2)); H vanishes identically exactly for quadratic
potentials G = (C1/2)(x + C2)**2.

All identity residuals here are evaluated in closed form on both sides,
so their contracts are at the 1e-9 relative level rather than being
limited by finite differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .poly import Polynomial, extreme_values, real_roots
from .system import Jet, LienardSystem, State, jet

CaseLabel = Literal["CASE1_H_NONNEG", "CASE2_H_NONPOS", "MIXED"]
SignLabel = Literal["NONNEG", "NONPOS", "MIXED", "ZERO"]


@dataclass(frozen=True)
class CaseClassification:
    """Certified sign of H on the probe window plus the linear-bound witness."""

    case_label: CaseLabel
    H_poly: Polynomial
    Gppp_sign: SignLabel
    c1_witness: float | None


def total_energy(sys: LienardSystem, s: State) -> float:
    """E = eps*xdot**2/2 + G(x) with xdot = (y - F(x))/eps."""
    return jet(sys, s).E


def energy_rate(sys: LienardSystem, s: State) -> float:
    """dE/dt = -f(x)*xdot**2 (negative wherever f > 0 and xdot != 0)."""
    return jet(sys, s).dEdt


def H_polynomial(sys: LienardSystem) -> Polynomial:
    """The case function H = G'**2 - 2*G*G'' as an exact polynomial."""
    Gp = sys.G.derivative()
    Gpp = Gp.derivative()
    return Gp * Gp - 2.0 * (sys.G * Gpp)


def H_rate(sys: LienardSystem, s: State) -> float:
    """dH/dt = -2*G(x)*G'''(x)*xdot along the flow, with G''' = g''."""
    return jet(sys, s).dHdt


def _sign_on_open_interval(p: Polynomial, lo: float, hi: float) -> SignLabel:
    """Certified sign of p on (lo, hi]: root isolation + samples between roots."""
    if p.is_zero:
        return "ZERO"
    if p.degree == 0:
        v = p.coeffs[0]
        return "NONNEG" if v > 0 else "NONPOS"
    cuts = [lo] + [r for r in real_roots(p, lo, hi, 1e-10) if r > lo] + [hi]
    cuts = sorted(set(cuts))
    saw_pos = saw_neg = False
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = p(0.5 * (a + b))
        if v > 1e-12:
            saw_pos = True
        elif v < -1e-12:
            saw_neg = True
    if saw_pos and saw_neg:
        return "MIXED"
    if saw_neg:
        return "NONPOS"
    if saw_pos:
        return "NONNEG"
    return "ZERO"


def _c1_witness(sys: LienardSystem, x_max: float, case: CaseLabel) -> float | None:
    """Tightest C1 with g(x) <= C1*x (case 1) or g(x) >= C1*x (case 2) on (0, x_max].

    Requires g(0) = 0 (odd g), so that g(x)/x is itself a polynomial whose
    extrema on the window are exact.
    """
    if sys.g.is_zero or sys.g.coeffs[0] != 0.0:
        return None
    vals = extreme_values(Polynomial(sys.g.coeffs[1:]), 0.0, x_max)
    if case == "CASE1_H_NONNEG":
        return max(vals)
    if case == "CASE2_H_NONPOS":
        return min(vals)
    return None


def classify_case(sys: LienardSystem, x_max: float = 10.0) -> CaseClassification:
    """Sign-certify H on (0, x_max] and report the matching linear bound on g."""
    if not x_max > 0:
        raise ValueError("x_max must be positive")
    Hp = H_polynomial(sys)
    h_sign = _sign_on_open_interval(Hp, 0.0, x_max)
    if h_sign in ("NONNEG", "ZERO"):
        label: CaseLabel = "CASE1_H_NONNEG"
    elif h_sign == "NONPOS":
        label = "CASE2_H_NONPOS"
    else:
        label = "MIXED"
    g3_sign = _sign_on_open_interval(sys.gpp, 0.0, x_max)
    if g3_sign == "ZERO":
        # G''' identically zero satisfies both bounds; report the side that
        # keeps dH/dt <= 0, matching the sub-linear case.
        g3_sign = "NONPOS"
    return CaseClassification(
        case_label=label,
        H_poly=Hp,
        Gppp_sign=g3_sign,
        c1_witness=_c1_witness(sys, x_max, label),
    )


def curvature_energy_residual(sys: LienardSystem, s: State) -> float:
    """Residual of eps*phi = 2*g'(x)*E + H(x) - f(x)*xdot*ydot.

    Exact identity; contract |residual| <= 1e-9 * max(1, |eps*phi|).
    """
    j = jet(sys, s)
    return sys.eps * j.phi - (2.0 * j.gp * j.E + j.H - j.f * j.xdot * j.ydot)


def relation_rate(j: Jet) -> float:
    """d/dt(2*g'(x)*E + H) in closed form: 2*g''*xdot*E + 2*g'*dE/dt + dH/dt."""
    return 2.0 * j.gpp * j.xdot * j.E + 2.0 * j.gp * j.dEdt + j.dHdt


def relation_rate_residual(sys: LienardSystem, s: State) -> float:
    """Residual of d/dt(2*g'(x)*E + H) = 2*f(x)*xdot*yddot + eps*g''(x)*xdot**3.

    The left side is relation_rate.  The g''-cubed term on the right is
    the Jacobian-rate contribution to the curvature rate; dropping it (as a
    pure 2*f*xdot*yddot right side would) breaks the identity whenever
    g'' != 0.  Contract: |residual| <= 1e-9 relative to the larger side.
    """
    j = jet(sys, s)
    rhs = 2.0 * j.f * j.xdot * j.yddot + sys.eps * j.gpp * j.xdot ** 3
    return relation_rate(j) - rhs


def appendix_residual(sys: LienardSystem, s: State) -> float:
    """Residual of d/dt(y**2/2 + eps*G(x)) = F(x)*ydot.

    This is the alternative (y-based) energy form; its decay law is
    equivalent to dE/dt = -f*xdot**2.  Contract: 1e-9 relative.
    """
    j = jet(sys, s)
    lhs = s.y * j.ydot + sys.eps * j.g * j.xdot
    return lhs - j.F * j.ydot
