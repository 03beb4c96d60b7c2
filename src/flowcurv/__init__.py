"""Flow-curvature slow manifolds, energy, and sign checks for planar
two-timescale Lienard systems eps*xdot = y - F(x), ydot = -g(x)."""

from .curvature import lie_residual, slow_branches, slow_manifold_table
from .dynamics import (
    IntegrationError,
    LimitCycle,
    extract_vicinity,
    find_limit_cycle,
    integrate,
)
from .energy import (
    H_polynomial,
    appendix_residual,
    classify_case,
    curvature_energy_residual,
    relation_rate_residual,
)
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
    "appendix_residual",
    "check_assumptions",
    "classify_case",
    "convergence_study",
    "curvature_energy_residual",
    "extract_vicinity",
    "find_limit_cycle",
    "integrate",
    "jet",
    "lie_residual",
    "make_system",
    "minorsky_report",
    "relation_rate_residual",
    "slow_branches",
    "slow_manifold_table",
]
