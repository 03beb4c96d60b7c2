"""Energy balance and the case function H.

The energy along the flow is E = eps*xdot**2/2 + G(x) (kinetic plus
potential) and decays at the closed-form rate dE/dt = -f(x)*xdot**2.
The sign of H = G'**2 - 2*G*G'' splits systems into a sub-linear-g case
(H >= 0, g(x) <= C1*(x + C2)) and a super-linear-g case (H <= 0,
g(x) >= C1*(x + C2)); H vanishes identically exactly for quadratic
potentials G = (C1/2)(x + C2)**2.

The energy, its rate, H, its rate and the curvature-energy identities
(the relation eps*phi = 2*g'*E + H - f*xdot*ydot, its rate and the
y-form energy law) are rows of system.JET_FORMULAS: a residual is a field
of the jet, evaluated in closed form, so its contract is at the 1e-9
relative level rather than being limited by finite differencing.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .poly import Polynomial, extreme_values, signs_on
from .system import JET_FORMULAS, LienardSystem, State, expression, jet

CaseLabel = Literal["CASE1_H_NONNEG", "CASE2_H_NONPOS", "MIXED"]
SignLabel = Literal["NONNEG", "NONPOS", "MIXED"]


class CaseClassification(NamedTuple):
    """Certified sign of H on the probe window plus the linear-bound witness."""

    case_label: CaseLabel
    H_poly: Polynomial
    Gppp_sign: SignLabel
    c1_witness: float | None


def H_polynomial(sys: LienardSystem) -> Polynomial:
    """The case function H = G'**2 - 2*G*G'' = g**2 - 2*G*g' as an exact polynomial.

    The jet table's H, evaluated on the system's polynomials instead of
    their values at a point; Polynomial arithmetic is exact.
    """
    code = expression(dict(JET_FORMULAS)["H"])
    return eval(code, {name: getattr(sys, name) for name in code.co_names})


def _c1_witness(sys: LienardSystem, x_max: float, case: CaseLabel) -> float | None:
    """Tightest C1 with g(x) <= C1*x (case 1) or g(x) >= C1*x (case 2) on (0, x_max].

    Requires g(0) = 0 (odd g), so that g(x)/x is itself a polynomial whose
    extrema on the window are exact.
    """
    if sys.g.is_zero or sys.g.num[0] != 0:
        return None
    vals = extreme_values(Polynomial(sys.g.coeffs[1:]), 0.0, x_max)
    if case == "CASE1_H_NONNEG":
        return max(vals)
    if case == "CASE2_H_NONPOS":
        return min(vals)
    return None


def classify_case(sys: LienardSystem, x_max: float = 10.0) -> CaseClassification:
    """Sign-certify H and G''' on (0, x_max]; report the matching linear bound on g.

    Both signs read the exact sign sets of poly.signs_on.  An identically
    zero H is case 1.  An identically zero G''' satisfies both bounds and
    reads NONPOS, the side that keeps dH/dt <= 0, as in the sub-linear case.
    """
    if not x_max > 0:
        raise ValueError("x_max must be positive")
    Hp = H_polynomial(sys)
    h_signs = signs_on(Hp, 0.0, x_max)
    label: CaseLabel = ("MIXED" if {-1, 1} <= h_signs
                        else "CASE2_H_NONPOS" if -1 in h_signs else "CASE1_H_NONNEG")
    g3_signs = signs_on(sys.gpp, 0.0, x_max)
    g3_sign: SignLabel = ("MIXED" if {-1, 1} <= g3_signs
                          else "NONNEG" if 1 in g3_signs else "NONPOS")
    return CaseClassification(
        case_label=label,
        H_poly=Hp,
        Gppp_sign=g3_sign,
        c1_witness=_c1_witness(sys, x_max, label),
    )


def total_energy(sys: LienardSystem, s: State) -> float:
    """E = eps*xdot**2/2 + G(x) with xdot = (y - F(x))/eps.

    Not exported: the package reads ``jet(sys, s).E``.  This and the two
    rates below stay because the benchmark's tracer (bench/tracing.py)
    counts their calls by name.
    """
    return jet(sys, s).E


def energy_rate(sys: LienardSystem, s: State) -> float:
    """dE/dt = -f(x)*xdot**2, ``jet(sys, s).dEdt``; kept for the tracer (see total_energy)."""
    return jet(sys, s).dEdt


def H_rate(sys: LienardSystem, s: State) -> float:
    """dH/dt = -2*G(x)*g''(x)*xdot, ``jet(sys, s).dHdt``; kept for the tracer (see total_energy)."""
    return jet(sys, s).dHdt
