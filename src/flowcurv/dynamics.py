"""Adaptive integration, return-map limit-cycle search, vicinity extraction.

The flow is stiff in the classical two-timescale sense but eps stays at
desk scale (>= ~0.005), so an explicit Dormand-Prince 5(4) pair with PI
step-size control and a hard step cap of 0.2*eps is both simple and fast
enough; no implicit solver or Newton iteration is needed.  Section
crossings are located by bisection in time on the x sign change.  The
cycle search integrates each return-map period once: the orbit it reports
is its converged pass, which starts at the previous iterate and ends
within the convergence tolerance of the section value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import slow_branches
from .poly import horner
from .system import LienardSystem, State, jet, positive_zeros_of_F

# Dormand-Prince 5(4) tableau (autonomous field, so no stage times).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Error coefficients: 5th-order weights minus the embedded 4th-order weights.
_E1 = 71 / 57600
_E3 = -71 / 16695
_E4 = 71 / 1920
_E5 = -17253 / 339200
_E6 = 22 / 525
_E7 = -1 / 40

_SAFETY = 0.9
_ALPHA = 0.17
_BETA = 0.04
_H_MIN = 1e-14
_STEP_CAP_FACTOR = 0.2
_BLOWUP_LIMIT = 1e150

# Default vicinity floor: this far beyond the positive zero of F.
VICINITY_MARGIN = 0.1


class IntegrationError(RuntimeError):
    """Numerical failure: stall, blow-up, missing return, empty vicinity."""


@dataclass(frozen=True)
class Trajectory:
    """Accepted-step samples with strictly increasing t."""

    samples: tuple[State, ...]
    accepted_steps: int
    rejected_steps: int
    tol_used: float


@dataclass(frozen=True)
class LimitCycle:
    """A converged (or best-effort) periodic orbit from the return map."""

    period: float
    section_value: float
    orbit: Trajectory
    amplitude_x: float
    converged: bool
    iterations: int
    iterates: tuple[float, ...]


@dataclass(frozen=True)
class VicinitySegment:
    """Contiguous run of trajectory samples inside the slow-branch band."""

    samples: tuple[State, ...]
    x_range: tuple[float, float]
    band_width: float


def _make_rhs(sys: LienardSystem):
    # horner on the stored coefficient tuples, without the method lookup of
    # Polynomial.__call__ on the integrator's hot path.
    Fc = sys.F.desc
    gc = sys.g.desc
    eps = sys.eps

    def rhs(x: float, y: float) -> tuple[float, float]:
        return (y - horner(Fc, x)) / eps, -horner(gc, x)

    return rhs


def _dp_step(rhs, x, y, h, k1x, k1y):
    """One Dormand-Prince step: 5th-order state, error estimate, FSAL slopes."""
    x2 = x + h * (_A21 * k1x)
    y2 = y + h * (_A21 * k1y)
    k2x, k2y = rhs(x2, y2)
    x3 = x + h * (_A31 * k1x + _A32 * k2x)
    y3 = y + h * (_A31 * k1y + _A32 * k2y)
    k3x, k3y = rhs(x3, y3)
    x4 = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
    y4 = y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
    k4x, k4y = rhs(x4, y4)
    x5 = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
    y5 = y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
    k5x, k5y = rhs(x5, y5)
    x6 = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
    y6 = y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
    k6x, k6y = rhs(x6, y6)
    xn = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
    yn = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
    k7x, k7y = rhs(xn, yn)
    ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
    ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
    return xn, yn, ex, ey, k7x, k7y


def _propagate(rhs, x, y, h, n_sub=1):
    """Fixed 5th-order substeps without error control (event refinement)."""
    hs = h / n_sub
    for _ in range(n_sub):
        k1x, k1y = rhs(x, y)
        x, y, _, _, _, _ = _dp_step(rhs, x, y, hs, k1x, k1y)
    return x, y


class _Stepper:
    """Error-controlled stepping shared by integrate() and the cycle search."""

    def __init__(self, sys: LienardSystem, s0: State, tol: float):
        if not (1e-13 <= tol <= 1e-3):
            raise ValueError("tol must lie in [1e-13, 1e-3]")
        if not all(math.isfinite(v) for v in s0):
            raise ValueError("initial state must be finite")
        self.rhs = _make_rhs(sys)
        self.tol = tol
        self.t, self.x, self.y = s0.t, s0.x, s0.y
        self.h_max = _STEP_CAP_FACTOR * sys.eps
        self.h = self.h_max
        self.k1x, self.k1y = self.rhs(self.x, self.y)
        self.err_prev = 1.0
        self.accepted = 0
        self.rejected = 0
        self.last_h = 0.0

    def advance(self, t_cap: float | None = None) -> State:
        """Take one accepted step (clamped so t never exceeds t_cap)."""
        tol = self.tol
        bad_streak = 0
        while True:
            h = self.h
            capped = False
            if t_cap is not None and self.t + h >= t_cap:
                h = t_cap - self.t
                capped = True
                if h < _H_MIN:
                    # Remaining span is below timestep resolution: snap.
                    self.t = t_cap
                    return State(self.t, self.x, self.y)
            if h < _H_MIN:
                if bad_streak:
                    raise IntegrationError("blow-up")
                raise IntegrationError("integration stalled (stiffness)")
            xn, yn, ex, ey, k7x, k7y = _dp_step(self.rhs, self.x, self.y, h, self.k1x, self.k1y)
            scx = tol * (1.0 + abs(self.x))
            scy = tol * (1.0 + abs(self.y))
            finite = math.isfinite(xn) and math.isfinite(yn) and math.isfinite(ex) and math.isfinite(ey)
            if not finite:
                bad_streak += 1
                if bad_streak > 30:
                    raise IntegrationError("blow-up")
                self.h = max(h * 0.2, _H_MIN * 0.5)
                self.rejected += 1
                continue
            err = math.sqrt(0.5 * ((ex / scx) ** 2 + (ey / scy) ** 2))
            if err <= 1.0:
                self.t = t_cap if capped else self.t + h
                self.x, self.y = xn, yn
                self.k1x, self.k1y = k7x, k7y
                self.accepted += 1
                self.last_h = h
                if abs(xn) > _BLOWUP_LIMIT or abs(yn) > _BLOWUP_LIMIT:
                    raise IntegrationError("blow-up")
                e = max(err, 1e-10)
                fac = _SAFETY * e ** (-_ALPHA) * self.err_prev ** _BETA
                self.err_prev = e
                self.h = min(self.h_max, max(h * min(5.0, max(0.2, fac)), _H_MIN))
                return State(self.t, self.x, self.y)
            self.rejected += 1
            e = max(err, 1e-10)
            self.h = h * min(1.0, max(0.2, _SAFETY * e ** (-_ALPHA)))

    @property
    def state(self) -> State:
        return State(self.t, self.x, self.y)


def integrate(sys: LienardSystem, s0: State, t_end: float, tol: float) -> Trajectory:
    """Integrate the flow from s0 to t_end with local error <= tol per step.

    Emits a sample at every accepted step (the last lands on t_end
    exactly).  Raises IntegrationError on step-size underflow or
    non-finite states.
    """
    if not t_end > s0.t:
        raise ValueError("t_end must exceed the initial time")
    stepper = _Stepper(sys, s0, tol)
    samples = [stepper.state]
    while stepper.t < t_end:
        samples.append(stepper.advance(t_cap=t_end))
    return Trajectory(
        samples=tuple(samples),
        accepted_steps=stepper.accepted,
        rejected_steps=stepper.rejected,
        tol_used=tol,
    )


def _refine_crossing(rhs, s_prev: State, h: float, t_tol: float = 1e-12) -> State:
    """Bisect the upward x=0 crossing inside the step of length h from s_prev."""
    lo, hi = 0.0, h
    while hi - lo > t_tol:
        mid = 0.5 * (lo + hi)
        xm, _ = _propagate(rhs, s_prev.x, s_prev.y, mid)
        if xm < 0.0:
            lo = mid
        else:
            hi = mid
    xh, yh = _propagate(rhs, s_prev.x, s_prev.y, hi)
    return State(s_prev.t + hi, xh, yh)


def _next_upward_crossing(
    stepper: _Stepper, horizon: float, collect: list[State] | None = None
) -> State:
    """Advance until x crosses 0 upward with y > 0; bisect the crossing time."""
    t_start = stepper.t
    prev = stepper.state
    while True:
        if stepper.t - t_start > horizon:
            raise IntegrationError("no return to the section within the safety horizon")
        cur = stepper.advance()
        if prev.x < 0.0 <= cur.x and 0.5 * (prev.y + cur.y) > 0.0:
            cross = _refine_crossing(stepper.rhs, prev, stepper.last_h)
            if collect is not None:
                collect.append(cross)
            return cross
        if collect is not None:
            collect.append(cur)
        prev = cur


def find_limit_cycle(
    sys: LienardSystem,
    y_guess: float,
    tol: float,
    max_iter: int = 50,
    integ_tol: float = 1e-10,
) -> LimitCycle:
    """Iterate the Poincare return map on the section {x = 0, xdot > 0}.

    Tangents are horizontal on the y-axis, so the crossing is transversal
    and well conditioned.  Every pass records its samples; the pass with
    |y_{k+1} - y_k| <= tol, or the last one when max_iter runs out, is the
    orbit.  It starts at (0, y_k), the previous iterate, and ends on the
    section at t = period with y = section_value = y_{k+1}, so it closes to
    within tol.  Non-convergence returns converged=False with that last
    pass; a missing return raises IntegrationError.
    """
    if not y_guess > 0:
        raise ValueError("y_guess must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    horizon = 10.0 * (1.0 + 1.0 / sys.eps)

    iterates = [float(y_guess)]
    converged = False
    for _ in range(max_iter):
        samples = [State(0.0, 0.0, iterates[-1])]
        stepper = _Stepper(sys, samples[0], integ_tol)
        cross = _next_upward_crossing(stepper, horizon, collect=samples)
        iterates.append(cross.y)
        if abs(cross.y - iterates[-2]) <= tol:
            converged = True
            break

    orbit = Trajectory(
        samples=tuple(samples),
        accepted_steps=stepper.accepted,
        rejected_steps=stepper.rejected,
        tol_used=integ_tol,
    )
    return LimitCycle(
        period=cross.t,
        section_value=cross.y,
        orbit=orbit,
        amplitude_x=max(abs(s.x) for s in samples),
        converged=converged,
        iterations=len(iterates) - 1,
        iterates=tuple(iterates),
    )


def extract_vicinity(
    traj: Trajectory,
    sys: LienardSystem,
    c: float,
    x_min: float | None = None,
) -> VicinitySegment:
    """Maximal contiguous run of samples in the slow-branch band.

    A sample qualifies when x >= x_min (default: the positive zero of F
    plus VICINITY_MARGIN), xdot < 0, the point is not fold-excluded, and
    |y - y_ref(x)| <= c*eps, where y_ref is the slow branch or, where the
    branch quadratic has no real root, the critical manifold it degenerates
    toward.  Raises IntegrationError when no sample qualifies.
    """
    if not c > 0:
        raise ValueError("band multiplier c must be positive")
    if x_min is None:
        zeros = positive_zeros_of_F(sys)
        if len(zeros) != 1:
            raise IntegrationError("cannot locate the positive zero of F")
        x_min = zeros[0] + VICINITY_MARGIN
    band = c * sys.eps

    def qualifies(s: State) -> bool:
        if s.x < x_min:
            return False
        if (s.y - sys.F(s.x)) / sys.eps >= 0.0:
            return False
        br = slow_branches(sys, s.x)
        if br.fold_excluded:
            return False
        y_ref = br.y_slow if br.y_slow is not None else sys.F(s.x)
        return abs(s.y - y_ref) <= band

    best: list[State] = []
    run: list[State] = []
    for s in traj.samples:
        if qualifies(s):
            run.append(s)
        else:
            if len(run) > len(best):
                best = run
            run = []
    if len(run) > len(best):
        best = run
    if not best:
        raise IntegrationError("trajectory does not visit the slow vicinity (integrate longer)")
    xs = [s.x for s in best]
    return VicinitySegment(samples=tuple(best), x_range=(min(xs), max(xs)), band_width=band)


TRAJECTORY_CSV_HEADER = "t,x,y,xdot,ydot,phi,E,dEdt"


def format_trajectory_csv(sys: LienardSystem, traj: Trajectory) -> str:
    """CSV export with derivative and diagnostic columns computed per sample."""
    lines = [TRAJECTORY_CSV_HEADER]
    for s in traj.samples:
        j = jet(sys, s)
        lines.append(
            f"{s.t!r},{s.x!r},{s.y!r},{j.xdot!r},{j.ydot!r},"
            f"{j.phi!r},{j.E!r},{j.dEdt!r}"
        )
    return "\n".join(lines) + "\n"
