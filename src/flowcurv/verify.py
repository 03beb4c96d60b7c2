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
from .dynamics import IntegrationError, LimitCycle, extract_vicinity, find_limit_cycle
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

# Return-map and integration tolerance of every cycle convergence_study finds.
STUDY_TOL = 1e-10

# Newton steps that solve a step's Hermite cubic x(s) = probe from the chord point.
_HERMITE_NEWTON_STEPS = 3


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


def _step_interpolant(sys: LienardSystem, t0, x0, y0, t1, x1, y1):
    """y as a function of x on the cubic Hermite interpolant of one step.

    x and y are cubics in s = (t - t0)/(t1 - t0), fixed by the step's end
    values and the field's slopes there (one sys.values call per end).  A
    probe abscissa is found by Newton's method on x(s) from the chord
    point; the interpolant's error is O(h**4), where the chord's is O(h**2).
    """
    h, eps = t1 - t0, sys.eps
    F0, _, _, g0, _, _, _ = sys.values(x0)
    F1, _, _, g1, _, _, _ = sys.values(x1)
    # h times the slopes dx/dt and dy/dt at each end
    ax0, ay0 = h * (y0 - F0) / eps, -h * g0
    ax1, ay1 = h * (y1 - F1) / eps, -h * g1
    dx, dy = x1 - x0, y1 - y0

    def y_at(px: float) -> float:
        s = (x0 - px) / (x0 - x1)
        for _ in range(_HERMITE_NEWTON_STEPS):
            b = (1.0 - 2.0 * s) * dx + (s - 1.0) * ax0 + s * ax1
            x_s = x0 + s * (dx + (s - 1.0) * b)
            dx_ds = dx + (2.0 * s - 1.0) * b + s * (s - 1.0) * (ax0 + ax1 - 2.0 * dx)
            s -= (x_s - px) / dx_ds
        return y0 + s * (dy + (s - 1.0) * ((1.0 - 2.0 * s) * dy + (s - 1.0) * ay0 + s * ay1))

    return y_at


def _descent_ys(sys: LienardSystem, traj, probes: "list[float]") -> "list[float | None]":
    """Interpolate y on the slow descent (x decreasing) at each probe abscissa.

    One walk along the orbit serves every probe: a probe takes its value
    from the cubic Hermite interpolant (_step_interpolant) of the first
    descending step whose x-span holds it, and stays None when no step
    does.  `probes` must be ascending.
    """
    ys: "list[float | None]" = [None] * len(probes)
    left = len(probes)
    it = zip(traj.t, traj.x, traj.y)
    t0, x0, y0 = next(it)
    for t1, x1, y1 in it:
        if x1 < x0:
            y_at = None
            for i in range(bisect_left(probes, x1), bisect_right(probes, x0)):
                if ys[i] is None:
                    y_at = y_at or _step_interpolant(sys, t0, x0, y0, t1, x1, y1)
                    ys[i] = y_at(probes[i])
                    left -= 1
            if not left:
                break
        t0, x0, y0 = t1, x1, y1
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
    lo, hi = x_probe
    if not lo < hi:
        raise ValueError("x_probe must be an ordered interval")

    probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
    dists: list[float] = []
    dists_crit: list[float] = []
    for eps in eps_list:
        sys_e = sys._replace(eps=eps)
        cycle = find_limit_cycle(sys_e, y_guess, STUDY_TOL, integ_tol=STUDY_TOL)
        if not cycle.converged:
            raise IntegrationError(f"limit cycle did not converge at eps={eps}")
        worst = worst_crit = 0.0
        for px, y_traj in zip(probes, _descent_ys(sys_e, cycle.orbit, probes)):
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
