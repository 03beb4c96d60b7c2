"""Pointwise sign-check pipeline and the approximation-order study.

minorsky_report evaluates nine closed-form checks at every accepted
integration sample inside the slow-branch band: the four monotonicity
signs of the descent, nonnegativity of the curvature function, positivity
of its rate, energy decay, the combined energy-rate bound, and the
invariance-identity residual.  A failed check never aborts the run; the
report is the product, and `overall` is simply "no check failed".

convergence_study measures how fast the limit cycle's slow descent
approaches (a) the curvature zero-set branch and (b) the critical
manifold as eps shrinks, and fits log-log slopes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .curvature import lie_residual, slow_branches
from .dynamics import IntegrationError, LimitCycle, extract_vicinity, find_limit_cycle
from .energy import relation_rate
from .system import LienardSystem, State, jet, make_system

CHECK_IDS = (
    "XDOT_NEG",
    "YDOT_NEG",
    "XDDOT_NEG",
    "YDDOT_POS",
    "PHI_NONNEG",
    "PHIDOT_POS",
    "DEDT_NEG",
    "EQ56_BOUND",
    "LIE_RESIDUAL",
)

# Margins below this magnitude count as "boundary" hits for PHI_NONNEG,
# which is asserted non-strictly.
PHI_BOUNDARY_TOL = 1e-10

LIE_RESIDUAL_TOL = 1e-8

# Equally spaced probe abscissas per eps in convergence_study.
N_PROBE = 25


@dataclass
class CheckResult:
    pass_count: int = 0
    fail_count: int = 0
    min_margin: float = math.inf
    boundary_count: int = 0

    def record(self, margin: float, ok: bool, boundary: bool = False) -> None:
        if ok:
            self.pass_count += 1
        else:
            self.fail_count += 1
        if boundary:
            self.boundary_count += 1
        if margin < self.min_margin:
            self.min_margin = margin


@dataclass(frozen=True)
class MinorskyReport:
    """Per-check pass/fail counts with the smallest signed margins."""

    system_name: str
    eps: float
    band_multiplier: float
    n_points: int
    checks: dict[str, CheckResult]
    overall: bool

    def to_json_dict(self) -> dict:
        return {
            "system": self.system_name,
            "eps": self.eps,
            "band": self.band_multiplier,
            "n_points": self.n_points,
            "checks": {
                cid: {
                    "pass": r.pass_count,
                    "fail": r.fail_count,
                    "min_margin": r.min_margin,
                }
                for cid, r in self.checks.items()
            },
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def sample_margins(sys: LienardSystem, s: State) -> dict[str, float]:
    """Signed margins (positive = satisfied) of the nine checks at one state."""
    j = jet(sys, s)
    lie_rel = abs(lie_residual(sys.eps, j)) / max(1.0, abs(j.phi_dot))
    return {
        "XDOT_NEG": -j.xdot,
        "YDOT_NEG": -j.ydot,
        "XDDOT_NEG": -j.xddot,
        "YDDOT_POS": j.yddot,
        "PHI_NONNEG": j.phi,
        "PHIDOT_POS": j.phi_dot,
        "DEDT_NEG": -j.dEdt,
        "EQ56_BOUND": -relation_rate(j),
        "LIE_RESIDUAL": LIE_RESIDUAL_TOL - lie_rel,
    }


def evaluate_checks(sys: LienardSystem, samples: "tuple[State, ...]") -> dict[str, CheckResult]:
    """Run all nine checks at every sample; PHI_NONNEG passes non-strictly."""
    results = {cid: CheckResult() for cid in CHECK_IDS}
    for s in samples:
        margins = sample_margins(sys, s)
        for cid in CHECK_IDS:
            m = margins[cid]
            if cid == "PHI_NONNEG":
                results[cid].record(m, ok=m >= 0.0, boundary=abs(m) < PHI_BOUNDARY_TOL)
            else:
                results[cid].record(m, ok=m > 0.0)
    return results


def minorsky_report(
    sys: LienardSystem,
    cycle: LimitCycle,
    band_multiplier: float = 1.0,
    system_name: str = "",
    x_min: float | None = None,
) -> MinorskyReport:
    """Extract the vicinity segment of the cycle and run the sign checks.

    `x_min` overrides the default window floor (positive zero of F plus
    0.1); passing a small value deliberately widens the checked region
    into the energy-absorbing strip, where DEDT_NEG is expected to record
    failures.
    """
    if not cycle.converged:
        raise ValueError("minorsky_report requires a converged limit cycle")
    seg = extract_vicinity(cycle.orbit, sys, band_multiplier, x_min=x_min)
    checks = evaluate_checks(sys, seg.samples)
    overall = all(r.fail_count == 0 for r in checks.values())
    return MinorskyReport(
        system_name=system_name,
        eps=sys.eps,
        band_multiplier=band_multiplier,
        n_points=len(seg.samples),
        checks=checks,
        overall=overall,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Distances (max over probe abscissas) and fitted log-log orders.

    `distances` measures trajectory-to-curvature-branch separation;
    `distances_critical` measures trajectory-to-critical-manifold
    separation, the zero-order comparison column.
    """

    eps_values: tuple[float, ...]
    distances: tuple[float, ...]
    fitted_order: float
    distances_critical: tuple[float, ...]
    fitted_order_critical: float


def _descent_y_at(traj, x_probe: float, sys: LienardSystem) -> float | None:
    """Interpolate y on the slow descent (x decreasing) at x = x_probe."""
    samples = traj.samples
    for s0, s1 in zip(samples[:-1], samples[1:]):
        if s1.x < s0.x and s1.x <= x_probe <= s0.x:
            if s0.x == s1.x:
                return s0.y
            w = (x_probe - s1.x) / (s0.x - s1.x)
            return s1.y + w * (s0.y - s1.y)
    return None


def _descent_x_range(traj) -> tuple[float, float]:
    """The x-range the orbit covers while x decreases."""
    xs = [x for s0, s1 in zip(traj.samples[:-1], traj.samples[1:]) if s1.x < s0.x
          for x in (s0.x, s1.x)]
    return min(xs), max(xs)


def convergence_study(
    sys: LienardSystem,
    eps_list: "list[float]",
    x_probe: tuple[float, float],
    y_guess: float = 1.0,
    cycle_tol: float = 1e-10,
    integ_tol: float = 1e-10,
) -> ConvergenceStudy:
    """Fit the order of the branch approximation over a decreasing eps list.

    A probe window that the orbit's descent does not cover at some eps is
    an input error and raises ValueError; a numerical failure (no
    converged cycle, no slow branch at a probe) raises IntegrationError.
    """
    if len(eps_list) < 2:
        raise ValueError("need >= 2 epsilons to fit order")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(e < 0.005 for e in eps_list):
        raise ValueError("eps below 0.005 is outside the integrator's comfort zone")
    lo, hi = x_probe
    if not lo < hi:
        raise ValueError("x_probe must be an ordered interval")

    probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
    dists: list[float] = []
    dists_crit: list[float] = []
    for eps in eps_list:
        sys_e = make_system(sys.F, sys.g, eps, G=sys.G)
        cycle = find_limit_cycle(sys_e, y_guess, cycle_tol, integ_tol=integ_tol)
        if not cycle.converged:
            raise IntegrationError(f"limit cycle did not converge at eps={eps}")
        worst = worst_crit = 0.0
        for px in probes:
            y_traj = _descent_y_at(cycle.orbit, px, sys_e)
            if y_traj is None:
                d_lo, d_hi = _descent_x_range(cycle.orbit)
                raise ValueError(
                    f"probe window probe_lo={lo}, probe_hi={hi} is not inside the "
                    f"orbit's descent, x in [{d_lo:.6g}, {d_hi:.6g}], at eps={eps}")
            br = slow_branches(sys_e, px)
            if br.y_slow is None:
                raise IntegrationError(f"no slow branch at x={px} for eps={eps}")
            worst = max(worst, abs(y_traj - br.y_slow))
            worst_crit = max(worst_crit, abs(y_traj - sys_e.F(px)))
        dists.append(worst)
        dists_crit.append(worst_crit)

    log_eps = [math.log(e) for e in eps_list]
    return ConvergenceStudy(
        eps_values=tuple(eps_list),
        distances=tuple(dists),
        fitted_order=_slope(log_eps, [math.log(d) for d in dists]),
        distances_critical=tuple(dists_crit),
        fitted_order_critical=_slope(log_eps, [math.log(d) for d in dists_crit]),
    )


def _slope(xs: "list[float]", ys: "list[float]") -> float:
    """Least-squares slope of ys against xs, with exactly rounded sums."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx
