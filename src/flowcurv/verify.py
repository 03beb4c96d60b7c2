"""Pointwise sign-check pipeline and the approximation-order study.

minorsky_report evaluates nine closed-form checks at every accepted
integration sample inside the slow-branch band: the four monotonicity
signs of the descent, nonnegativity of the curvature function, positivity
of its rate, energy decay, the combined energy-rate bound, and the
invariance-identity residual.  A failed check never aborts the run; the
report is the product, and `overall` is simply "no check failed".

convergence_study measures how fast the limit cycle's slow descent
approaches (a) the curvature zero-set branch and (b) the critical
manifold as eps shrinks, and fits log-log slopes; dynamics reads the
descent between its samples.

The nine checks are one table, _CHECKS, of margin expressions over the
jet's fields alone (the relation rate and the invariance residual among
them, rows of system.JET_FORMULAS): evaluate_checks runs them in one
loop that is compiled, like the CSV writers, once per zero pattern of
the system's polynomials (system.specialized), and sample_margins
evaluates the same text at one state.  The reports are immutable
NamedTuple records, like every record in the package.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .curvature import slow_branches
from .dynamics import (IntegrationError, LimitCycle, _descent_ys, extract_vicinity,
                       find_limit_cycle)
from .system import JET_FORMULAS, LienardSystem, State, expression, jet, jet_code, specialized

LIE_RESIDUAL_TOL = 1e-8

# Equally spaced probe abscissas per eps in convergence_study.
N_PROBE = 25

# Return-map and integration tolerance of every cycle convergence_study finds.
STUDY_TOL = 1e-10


# The nine checks in report order: (id, signed margin over the jet's
# fields, positive where the check holds; whether a zero margin passes).
# Both the per-sample margins and the checks' loop are built from this text.
_CHECKS = (
    ("XDOT_NEG", "-xdot", False),
    ("YDOT_NEG", "-ydot", False),
    ("XDDOT_NEG", "-xddot", False),
    ("YDDOT_POS", "yddot", False),
    ("PHI_NONNEG", "phi", True),
    ("PHIDOT_POS", "phi_dot", False),
    ("DEDT_NEG", "-dEdt", False),
    ("EQ56_BOUND", "-relation_rate", False),
    ("LIE_RESIDUAL", "LIE_RESIDUAL_TOL - abs(lie_residual) / max(1.0, abs(phi_dot))", False),
)
CHECK_IDS = tuple(cid for cid, _, _ in _CHECKS)


def _tally_lines() -> "list[str]":
    """The checks' loop's body (see system.specialized).

    The loop is tally(samples): for each check in _CHECKS's order, the
    number of samples whose margin passes and the smallest margin, which
    starts at inf and is replaced only by a margin that compares less, so
    a NaN never is.  Each sample's margins are the lines of
    system.jet_code over the jet table extended by one row per check, its
    polynomial values inline Horner code.
    """
    sample = jet_code(CHECK_IDS, (*JET_FORMULAS, *((cid, margin) for cid, margin, _ in _CHECKS)))
    for cid, _, zero_passes in _CHECKS:
        sample += [f"passed_{cid} += {cid} {'>=' if zero_passes else '>'} 0.0",
                 f"if {cid} < least_{cid}:",
                 f"    least_{cid} = {cid}"]
    return [f"{' = '.join(f'passed_{cid}' for cid in CHECK_IDS)} = 0",
            f"{' = '.join(f'least_{cid}' for cid in CHECK_IDS)} = inf",
            "for _, x, y in samples:",
            *(f"    {line}" for line in sample),
            f"return {', '.join(f'(passed_{cid}, least_{cid})' for cid in CHECK_IDS)}"]


_tally = specialized("tally(samples)", _tally_lines, "nine checks",
                     {"inf": math.inf, "LIE_RESIDUAL_TOL": LIE_RESIDUAL_TOL})


class CheckResult(NamedTuple):
    """One check's pass and fail counts and its smallest margin over the samples."""

    pass_count: int
    fail_count: int
    min_margin: float


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
    """Signed margins (positive = satisfied) of the nine checks at one state.

    _CHECKS's margins evaluated on the state's jet.
    """
    names = {"LIE_RESIDUAL_TOL": LIE_RESIDUAL_TOL, **jet(sys, s)._asdict()}
    return {cid: eval(expression(margin), names) for cid, margin, _ in _CHECKS}


def evaluate_checks(sys: LienardSystem, samples: "tuple[State, ...]") -> dict[str, CheckResult]:
    """Run all nine checks at every sample, in the system's compiled loop (_tally_lines).

    A margin passes when positive, or when zero for a check whose zero
    passes (PHI_NONNEG).  A NaN margin fails and is never the minimum, which
    is inf when there are no samples.  Each margin is bit for bit
    sample_margins's.
    """
    n = len(samples)
    return {cid: CheckResult(passed, n - passed, least)
            for cid, (passed, least) in zip(CHECK_IDS, _tally(sys)(samples))}


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


def convergence_study(
    sys: LienardSystem,
    eps_list: "list[float]",
    x_probe: tuple[float, float],
    y_guess: float = 1.0,
) -> ConvergenceStudy:
    """Fit the order of the branch approximation over a decreasing eps list.

    Each probe's slow branch is found once, before any cycle search, and
    a probe without one (below a fold, say) is an input error: it raises
    ValueError naming x and eps, as does a probe window that the orbit's
    descent does not cover at some eps.  A cycle search that fails or
    does not converge raises IntegrationError.
    """
    if len(eps_list) < 2:
        raise ValueError("eps_list needs >= 2 values to fit an order")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    lo, hi = x_probe
    if not lo < hi:
        raise ValueError("probe_lo must be below probe_hi")

    probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
    systems = [sys._replace(eps=eps) for eps in eps_list]
    branches = [[slow_branches(sys_e, px) for px in probes] for sys_e in systems]
    for sys_e, brs in zip(systems, branches):
        for br in brs:
            if br.y_slow is None:
                raise ValueError(f"probe x={br.x} has no slow branch at eps={sys_e.eps}")
    dists: list[float] = []
    dists_crit: list[float] = []
    for sys_e, brs in zip(systems, branches):
        eps = sys_e.eps
        cycle = find_limit_cycle(sys_e, y_guess, STUDY_TOL, integ_tol=STUDY_TOL)
        if not cycle.converged:
            raise IntegrationError(f"limit cycle did not converge at eps={eps}")
        ys, (d_lo, d_hi) = _descent_ys(sys_e, cycle.orbit, probes)
        if None in ys:
            raise ValueError(
                f"probe window probe_lo={lo}, probe_hi={hi} is not inside the "
                f"orbit's descent, x in [{d_lo:.6g}, {d_hi:.6g}], at eps={eps}")
        worst = worst_crit = 0.0
        for br, y_traj in zip(brs, ys):
            worst = max(worst, abs(y_traj - br.y_slow))
            worst_crit = max(worst_crit, abs(y_traj - sys_e.F(br.x)))
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
