"""Flow-curvature slow manifolds, energy, and sign checks for planar
two-timescale Lienard systems eps*xdot = y - F(x), ydot = -g(x)."""

from .curvature import slow_branches
from .dynamics import (
    IntegrationError,
    LimitCycle,
    extract_vicinity,
    find_limit_cycle,
    integrate,
)
from .energy import H_polynomial, classify_case
from .poly import Polynomial
from .system import LienardSystem, State, check_assumptions, jet, make_system
from .verify import convergence_study, minorsky_report

__version__ = "0.1.0"

__all__ = [
    "H_polynomial",
    "IntegrationError",
    "LienardSystem",
    "LimitCycle",
    "Polynomial",
    "State",
    "check_assumptions",
    "classify_case",
    "convergence_study",
    "extract_vicinity",
    "find_limit_cycle",
    "integrate",
    "jet",
    "make_system",
    "minorsky_report",
    "slow_branches",
]
