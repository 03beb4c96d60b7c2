"""Flow-curvature slow manifolds, energy, and sign checks for planar
two-timescale Lienard systems eps*xdot = y - F(x), ydot = -g(x)."""

from .curvature import (
    lie_identity_residual,
    phi,
    phi_dot,
    slow_branches,
    slow_manifold_table,
)
from .dynamics import (
    IntegrationError,
    LimitCycle,
    extract_vicinity,
    find_limit_cycle,
    integrate,
)
from .energy import (
    H_polynomial,
    H_rate,
    appendix_residual,
    classify_case,
    curvature_energy_residual,
    energy_rate,
    relation_rate_residual,
    total_energy,
)
from .poly import Polynomial
from .system import (
    LienardSystem,
    State,
    check_assumptions,
    jacobian,
    jacobian_rate,
    jet,
    make_system,
    vector_field,
)
from .verify import convergence_study, minorsky_report

__version__ = "0.1.0"

__all__ = [
    "H_polynomial",
    "H_rate",
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
    "energy_rate",
    "extract_vicinity",
    "find_limit_cycle",
    "integrate",
    "jacobian",
    "jacobian_rate",
    "jet",
    "lie_identity_residual",
    "make_system",
    "minorsky_report",
    "phi",
    "phi_dot",
    "relation_rate_residual",
    "slow_branches",
    "slow_manifold_table",
    "total_energy",
    "vector_field",
]
