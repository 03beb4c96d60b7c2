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

The reports are immutable NamedTuple records, like every record in the
package; CheckResult, which evaluate_checks fills sample by sample, is
the one mutable accumulator, a small slotted class.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .curvature import lie_residual, slow_branches
from .dynamics import EPS_FLOOR, IntegrationError, LimitCycle, extract_vicinity, find_limit_cycle
from .energy import relation_rate
from .system import LienardSystem, State, jet

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

LIE_RESIDUAL_TOL = 1e-8

# Equally spaced probe abscissas per eps in convergence_study.
N_PROBE = 25

class CheckResult:
    """One check's running pass/fail counts and smallest margin."""

    __slots__ = ("pass_count", "fail_count", "min_margin")

    def __init__(self):
        self.pass_count = self.fail_count = 0
        self.min_margin = math.inf

    def record(self, margin: float, ok: bool) -> None:
        if ok:
            self.pass_count += 1
        else:
            self.fail_count += 1
        if margin < self.min_margin:
            self.min_margin = margin


class MinorskyReport(NamedTuple):
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
            results[cid].record(m, ok=m >= 0.0 if cid == "PHI_NONNEG" else m > 0.0)
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


class ConvergenceStudy(NamedTuple):
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


def _descent_ys(traj, probes: "list[float]") -> "list[float | None]":
    """Interpolate y on the slow descent (x decreasing) at each probe abscissa.

    One walk along the orbit serves every probe: a probe takes its value
    from the first descending step whose x-span holds it, and stays None
    when no step does.  `probes` must be ascending.
    """
    ys: "list[float | None]" = [None] * len(probes)
    left = len(probes)
    it = zip(traj.x, traj.y)
    x0, y0 = next(it)
    for x1, y1 in it:
        if x1 < x0:
            for i in range(bisect_left(probes, x1), bisect_right(probes, x0)):
                if ys[i] is None:
                    w = (probes[i] - x1) / (x0 - x1)
                    ys[i] = y1 + w * (y0 - y1)
                    left -= 1
            if not left:
                break
        x0, y0 = x1, y1
    return ys


def _descent_x_range(traj) -> tuple[float, float]:
    """The x-range the orbit covers while x decreases."""
    xs = [x for x0, x1 in zip(traj.x[:-1], traj.x[1:]) if x1 < x0 for x in (x0, x1)]
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
    if any(e < EPS_FLOOR for e in eps_list):
        raise ValueError(f"eps below {EPS_FLOOR} is outside the integrator's comfort zone")
    lo, hi = x_probe
    if not lo < hi:
        raise ValueError("x_probe must be an ordered interval")

    probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
    dists: list[float] = []
    dists_crit: list[float] = []
    for eps in eps_list:
        sys_e = sys._replace(eps=eps)
        cycle = find_limit_cycle(sys_e, y_guess, cycle_tol, integ_tol=integ_tol)
        if not cycle.converged:
            raise IntegrationError(f"limit cycle did not converge at eps={eps}")
        worst = worst_crit = 0.0
        for px, y_traj in zip(probes, _descent_ys(cycle.orbit, probes)):
            if y_traj is None:
                d_lo, d_hi = _descent_x_range(cycle.orbit)
                raise ValueError(
                    f"probe window probe_lo={lo}, probe_hi={hi} is not inside the "
                    f"orbit's descent, x in [{d_lo:.6g}, {d_hi:.6g}], at eps={eps}")
            br = slow_branches(sys_e, px)
            if br.y_slow is None:
                raise IntegrationError(f"no slow branch at x={px} for eps={eps}")
            worst = max(worst, abs(y_traj - br.y_slow))
            worst_crit = max(worst_crit, abs(y_traj - sys_e.values(px)[0]))
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
