"""Adaptive integration, return-map limit-cycle search, vicinity extraction.

The flow is stiff in the classical two-timescale sense but eps stays at
desk scale: every integration refuses eps below EPS_FLOOR = 1e-4, so an
explicit Dormand-Prince 5(4) pair with PI step-size control does; no
implicit solver or Newton iteration is needed.  The step is capped at
0.2*eps for accuracy, not for speed: the cap keeps |h*f/eps| <= 0.2*|f|,
so the explicit step damps the stiff mode (rate -f/eps) that the
PHIDOT_POS check amplifies.  Without it, on F = x**3/192 - x, g = x/64 at
eps 0.05, PHIDOT_POS fails at all 705 of 705 vicinity samples instead of
29 of 2231, while a certify pass over both bundled systems attempts
17,353 steps instead of 19,705 and vdp's converged half-period pass at
eps 1e-4 (tol 1e-10) 8,073 instead of 40,826.

Each system gets one march kernel: the whole stepping loop of `_march`
in one generated function, which `integrate` and the cycle search both
call once per pass.  Its entry slope and six DP5(4) stages are
straight-line code, every F and g evaluation a Horner expression without
its zero terms; the PI controller, the blow-up tests and the column
appends run in the same frame, so a step calls nothing but sqrt and the
appends.  Like the jet and the CSV writers, it is built by
system.specialized, once per zero pattern of F and g, the polynomials
it reads.  Every pass steps towards a t_end; a section pass stops
instead at the first upward x = 0 crossing, located on the crossing
step's 4th-order dense output (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), whose coefficients come from the stage slopes already in the
frame, and its t_end is the safety horizon, where it raises.  Every pass
is bounded in attempted steps: a section pass by _PASS_STEP_BUDGET, a
pass to t_end by that many more than the step cap needs to span the
interval.
The cycle search integrates each return-map pass once: the orbit it
reports is its converged pass, which starts at the previous iterate and
ends within the convergence tolerance of the section value.  When F and
g are odd, as the paper's class has them, the flow commutes with
(x, y) -> (-x, -y) and the cycle is symmetric, so a pass covers half a
period: the downward half from (0, y_k) is the mirror image of the
upward pass from (0, -y_k), which lands on (0, y_{k+1}).  Generated
Horner code of an odd polynomial is bitwise odd (rounding to nearest is
sign-symmetric), and so are the stage sums, the error norm and the
controller, so the mirror is exact.  The reported orbit is the mirror of
that pass followed by the pass itself.
Trajectories, cycles and vicinity segments are immutable NamedTuple
records, like every record in the package.  A trajectory keeps its
samples as three read-only float64 columns, t, x and y (24 bytes a
sample, where a State tuple of three floats costs about 144): the step
count grows like 1/eps, and the loop appends plain floats to the
columns.  Trajectory.samples builds State tuples on demand.
The trajectory CSV writer, format_trajectory_csv, is compiled on first
use once per zero pattern of F, f, g, g' and G, the polynomials its row
reads (system.compile_writer): one loop whose row computes the jet
columns from the lines of system.JET_FORMULAS they need, with inline
Horner code for those five, so a row calls no Python function and builds
no jet.
extract_vicinity's scan over the orbit is generated the same way, once
per zero pattern of F, f, g and g': one loop over the x and y columns
with inline Horner code and curvature._BRANCH_TEMPLATE's steps, which
calls no Python function per sample.
Between its samples an orbit is read in two places: the section
crossing, on its step's dense output, and the study's descent
(_descent_ys), on each step's cubic Hermite interpolant.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .curvature import _BRANCH_ENV, _BRANCH_TEMPLATE
from .poly import signs_on
from .system import (LienardSystem, State, compile_writer, jet_code, positive_zeros_of_F,
                     specialized)

# Dormand-Prince 5(4) tableau (autonomous field, so no stage times).  Row i
# of _DP_A forms stage i + 2 from the slopes k1 ... k(i + 1); its last row is
# the 5th-order solution, whose slope k7 starts the next step (FSAL).
# _DP_E holds the 5th-order weights minus the embedded 4th-order ones (the
# error estimate), _DP_D the weights of the dense output's last
# coefficient (Hairer's DOPRI5).  Zero weights are left out of the code.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)

_SAFETY = 0.9
_ALPHA = 0.17
_BETA = 0.04
_H_MIN = 1e-14
_STEP_CAP_FACTOR = 0.2
_BLOWUP_LIMIT = 1e150
# A step-size underflow where the state's size max(1, |x|, |y|) grows faster
# than this relative rate is reported as a blow-up, not as stiffness.  Near
# a finite-time blow-up the controller keeps rate * h near tol**(1/5), at
# least 0.0025 for tol >= 1e-13, so the rate exceeds 2.5e11 once h falls
# below _H_MIN.  In a stall the state grows slowly or shrinks, a stiff mode
# relaxing: F = 1e14 x from (1, 1) shrinks at rate 2e15.
_BLOWUP_RATE = 1e10
# A section crossing is located to this resolution in time.
_CROSSING_T_TOL = 1e-12

# Return-map passes find_limit_cycle makes before it reports non-convergence.
MAX_PASSES = 50

# Attempted steps (accepted plus rejected) one return-map pass may take, and
# one integration to t_end beyond the fewest that its step cap allows.  The
# largest legitimate pass measured is the first, from y = 1, at EPS_FLOOR
# and tol 1e-13: 90,719 steps for a full period of vdp and 76,522 of
# llibre_mereu, 49,359 and 43,342 for a half period.  A run that never
# nears the cycle, such as vdp's from y = 1e9, stiffens without bound: it
# ends here, after about 5 s, instead of at the horizon or at t_end.
_PASS_STEP_BUDGET = 1_000_000

# Default vicinity floor: this far beyond the positive zero of F.
VICINITY_MARGIN = 0.1

# Smallest eps any integration accepts.  The step is capped at 0.2*eps (see
# the module docstring) and every accepted step is kept, so the work and
# the memory of a run grow like 1/eps.  Measured with the default
# tolerances on both bundled configs: the cycle search converges in two
# passes at every eps from 0.005 down to 5e-5, and convergence_study's
# branch distance over eps**2 stays within 0.3% of its eps = 0.001 value
# down to 1e-4 (vdp 1.3785-1.3827, llibre_mereu 0.2972-0.2975).  At 1e-4
# a full period takes 64,000-82,000 steps (a half-period pass 32,000-49,000)
# and the smallest distance is still 30 times the integration tolerance of
# 1e-10; at 5e-5 it was only 7.7 times.
EPS_FLOOR = 1e-4


class IntegrationError(RuntimeError):
    """Numerical failure: stall, blow-up, missing return, empty vicinity.

    Failures of the stepping loop carry where they happened: the time t,
    the state (x, y), the step size h being taken, and the accepted and
    rejected step counts so far.  Other failures leave these None.
    """

    def __init__(self, message: str, *, t=None, x=None, y=None, h=None,
                 accepted=None, rejected=None):
        super().__init__(message)
        self.t, self.x, self.y, self.h = t, x, y, h
        self.accepted, self.rejected = accepted, rejected


class Trajectory(NamedTuple):
    """Accepted-step samples with strictly increasing t, as float64 columns.

    t, x and y are read-only memoryviews of one array("d") each; sample i
    is (t[i], x[i], y[i]).
    """

    t: memoryview
    x: memoryview
    y: memoryview
    accepted_steps: int
    rejected_steps: int
    tol_used: float

    @classmethod
    def _of_arrays(cls, t: array, x: array, y: array, accepted_steps: int,
                   rejected_steps: int, tol_used: float) -> "Trajectory":
        """The trajectory over these array("d") columns, viewed read-only."""
        return cls(memoryview(t).toreadonly(), memoryview(x).toreadonly(),
                   memoryview(y).toreadonly(), accepted_steps, rejected_steps, tol_used)

    def __reduce__(self):
        # A memoryview does not pickle or deep-copy; the array it views does.
        return Trajectory._of_arrays, (self.t.obj, self.x.obj, self.y.obj, *self[3:])

    @property
    def samples(self) -> tuple[State, ...]:
        """The samples as State tuples, built on each access."""
        return tuple(map(State, self.t, self.x, self.y))


class LimitCycle(NamedTuple):
    """A converged (or best-effort) periodic orbit from the return map."""

    period: float
    section_value: float
    orbit: Trajectory
    amplitude_x: float
    converged: bool
    iterations: int
    iterates: tuple[float, ...]


class VicinitySegment(NamedTuple):
    """Contiguous run of trajectory samples inside the slow-branch band."""

    samples: tuple[State, ...]
    x_range: tuple[float, float]
    band_width: float


def _weighted(row: "tuple[float, ...]", c: str) -> str:
    """Source of h * (w1 * k1c + w2 * k2c + ...), summed left to right.

    A negative weight needs no parentheses: unary minus binds tighter
    than *, and the code compiles to the same bytecode, parsed faster.
    """
    terms = " + ".join(f"{w!r} * k{j}{c}" for j, w in enumerate(row, 1) if w)
    return f"h * ({terms})"


def _kernel_lines() -> "list[str]":
    """The march kernel's factory body (see system.specialized).

    The kernel is march(t, x, y, h_max, tol, t_end, section, budget,
    t_append, x_append, y_append): the whole error-controlled loop of
    _march in one frame.  It steps from (t, x, y) towards t_end with step
    cap h_max, hands every accepted state to the appends, and returns the
    accepted and rejected step counts.  The last step lands on t_end
    exactly.  A section pass (section true) ends instead on the first
    x = 0 crossing upward with y > 0, located on the crossing step's dense
    output, whose coefficients it forms from the stage slopes in hand; if
    it reaches t_end first, it raises.  Either pass raises once more than
    budget steps have been attempted.  The entry slope and every stage
    read F and g only, as F(x) and g(x), so a step is bit-identical to one
    through Polynomial.__call__.
    """
    stages = []
    for i, row in enumerate(_DP_A, 2):
        xs, ys = ("xn", "yn") if i == 7 else (f"x{i}", f"y{i}")
        stages += [f"{xs} = x + {_weighted(row, 'x')}",
                   f"{ys} = y + {_weighted(row, 'y')}",
                   f"k{i}x = ({ys} - F({xs})) / eps",
                   f"k{i}y = -g({xs})"]
    stages += [f"ex = {_weighted(_DP_E, 'x')}", f"ey = {_weighted(_DP_E, 'y')}"]
    fail = "t=t, x=x, y=y, h=h, accepted=accepted, rejected=rejected"
    lines = [
        "def march(t, x, y, h_max, tol, t_end, section, budget, t_append, x_append, y_append):",
        "    k1x = (y - F(x)) / eps",
        "    k1y = -g(x)",
        "    hp = h_max",
        "    err_prev = 1.0",
        "    accepted = rejected = bad = 0",
        "    while True:",
        "        h = hp",
        "        capped = t + h >= t_end",
        "        if capped:",
        "            h = t_end - t",
        f"            if h < {_H_MIN!r}:",
        "                # Remaining span is below timestep resolution: snap.",
        "                t = t_end",
        "                t_append(t)",
        "                x_append(x)",
        "                y_append(y)",
        "                break",
        f"        if h < {_H_MIN!r}:",
        "            raise _underflow(bad, t, x, y, k1x, k1y, h, accepted, rejected)",
        *(f"        {line}" for line in stages),
        # v - v == 0.0 holds exactly for finite v.  Below, abs and the
        # clamps are conditionals, not calls, and the constants literals:
        # this runs per step.
        "        if not (xn - xn == 0.0 and yn - yn == 0.0 and ex - ex == 0.0 and ey - ey == 0.0):",
        "            bad += 1",
        "            rejected += 1",
        "            if bad > 30:",
        f"                raise IntegrationError('blow-up', {fail})",
        "            hp = h * 0.2",
        f"            hp = {_H_MIN * 0.5!r} if hp < {_H_MIN * 0.5!r} else hp",
        "            continue",
        "        try:",
        "            err = sqrt(0.5 * ((ex / (tol * (1.0 + (x if x >= 0.0 else -x)))) ** 2"
        " + (ey / (tol * (1.0 + (y if y >= 0.0 else -y)))) ** 2))",
        "        except OverflowError:",
        f"            raise IntegrationError('blow-up', {fail}) from None",
        "        e = 1e-10 if err < 1e-10 else err",
        "        if err > 1.0:",
        "            rejected += 1",
        f"            fac = {_SAFETY!r} * e ** {-_ALPHA!r}",
        "            hp = h * (0.2 if fac < 0.2 else 1.0 if fac > 1.0 else fac)",
        "            continue",
        "        bad = 0",
        "        accepted += 1",
        "        tn = t_end if capped else t + h",
        f"        if xn > {_BLOWUP_LIMIT!r} or xn < {-_BLOWUP_LIMIT!r}"
        f" or yn > {_BLOWUP_LIMIT!r} or yn < {-_BLOWUP_LIMIT!r}:",
        "            raise IntegrationError('blow-up', t=tn, x=xn, y=yn, h=h,"
        " accepted=accepted, rejected=rejected)",
        f"        fac = {_SAFETY!r} * e ** {-_ALPHA!r} * err_prev ** {_BETA!r}",
        "        err_prev = e",
        "        hp = h * (0.2 if fac <= 0.2 else 5.0 if fac >= 5.0 else fac)",
        f"        hp = {_H_MIN!r} if hp < {_H_MIN!r} else h_max if hp > h_max else hp",
        "        if section and x < 0.0 <= xn and 0.5 * (y + yn) > 0.0:",
        "            tc, xc, yc = _crossing(t, h, x, y, k1x, k1y, xn, yn, k7x, k7y,"
        f" {_weighted(_DP_D, 'x')}, {_weighted(_DP_D, 'y')})",
        "            t_append(tc)",
        "            x_append(xc)",
        "            y_append(yc)",
        "            return accepted, rejected",
        "        t = tn",
        "        x = xn",
        "        y = yn",
        "        k1x = k7x",
        "        k1y = k7y",
        "        t_append(t)",
        "        x_append(x)",
        "        y_append(y)",
        "        if not t < t_end:",
        "            break",
        "        if accepted + rejected > budget:",
        "            goal = 'return to the section' if section else 'arrival at t_end'",
        "            raise IntegrationError(f'no {goal} within {budget} steps',",
        "                                   t=t, x=x, y=y, h=hp, accepted=accepted, rejected=rejected)",
        "    if section:",
        "        raise IntegrationError('no return to the section within the safety horizon',",
        "                               t=t, x=x, y=y, h=hp, accepted=accepted, rejected=rejected)",
        "    return accepted, rejected",
    ]
    return [f"    {line}" for line in lines] + ["    return march"]


def _underflow(bad, t, x, y, k1x, k1y, h, accepted, rejected) -> IntegrationError:
    """The error for a step size below _H_MIN: a blow-up or a stall.

    A blow-up when an attempt was not finite, or when the state's size grows
    at its last accepted sample, with slope (k1x, k1y), faster than
    _BLOWUP_RATE relative to max(1, size).
    """
    if abs(x) >= abs(y):
        size, growth = abs(x), (k1x if x >= 0.0 else -k1x)
    else:
        size, growth = abs(y), (k1y if y >= 0.0 else -k1y)
    runaway = growth > _BLOWUP_RATE * max(1.0, size)
    return IntegrationError("blow-up" if bad or runaway else "integration stalled (stiffness)",
                            t=t, x=x, y=y, h=h, accepted=accepted, rejected=rejected)


def _dense(c: "tuple[float, float, float, float, float]", th: float) -> float:
    """The DP5(4) dense output at fraction th of the step (Hairer's CONTD5)."""
    th1 = 1.0 - th
    return c[0] + th * (c[1] + th1 * (c[2] + th * (c[3] + th1 * c[4])))


def _crossing(t, h, x, y, k1x, k1y, xn, yn, k7x, k7y, dx, dy) -> "tuple[float, float, float]":
    """(t, x, y) of the upward x = 0 crossing inside the accepted step of length h.

    The step goes from (t, x, y) with slope (k1x, k1y) to (xn, yn) with
    slope (k7x, k7y); dx and dy are the last dense-output coefficients
    h * sum(d_i * k_i).  The crossing time is bisected on the step's
    interpolant to _CROSSING_T_TOL, keeping the x >= 0 side.
    """
    cs = []
    for v0, v1, k1, k7, d in ((x, xn, k1x, k7x, dx), (y, yn, k1y, k7y, dy)):
        diff = v1 - v0
        bspl = h * k1 - diff
        cs.append((v0, diff, bspl, diff - h * k7 - bspl, d))
    cx, cy = cs
    lo, hi = 0.0, 1.0
    while (hi - lo) * h > _CROSSING_T_TOL:
        mid = 0.5 * (lo + hi)
        if _dense(cx, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h, _dense(cx, hi), _dense(cy, hi)


_kernel = specialized(_kernel_lines, "dp5 march", {
    "sqrt": math.sqrt, "IntegrationError": IntegrationError,
    "_underflow": _underflow, "_crossing": _crossing})


def _march(sys: LienardSystem, s0: State, tol: float, t_end: float | None = None) -> Trajectory:
    """The error-controlled stepping loop shared by integrate and the cycle search.

    Every accepted state is a sample, appended to the t, x and y columns.
    Given t_end, step to it (the last step lands on it exactly).  Without
    one, make a section pass: step until x crosses 0 upward with y > 0;
    the crossing, not the end of its step, is the last sample.  A section
    pass steps towards the safety horizon t0 + 10 * (1 + 1/eps) and raises
    there, with the state at the horizon.  Either pass raises once its
    attempted steps exceed the budget: _PASS_STEP_BUDGET, plus, to t_end,
    the ceil((t_end - t0) / h_max) steps the cap needs, so every run the
    cap allows can finish.  The loop itself is one call of the system's
    march kernel (_kernel_lines, bound by system.specialized).
    """
    if sys.eps < EPS_FLOOR:
        raise ValueError(f"eps below {EPS_FLOOR} is outside the integrator's comfort zone")
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError("tol must lie in [1e-13, 1e-3]")
    if not all(math.isfinite(v) for v in s0):
        raise ValueError("initial state must be finite")
    eps = sys.eps
    t, x, y = s0
    h_max = _STEP_CAP_FACTOR * eps
    section = t_end is None
    if section:
        t_end, budget = t + 10.0 * (1.0 + 1.0 / eps), _PASS_STEP_BUDGET
    else:
        budget = _PASS_STEP_BUDGET + math.ceil((t_end - t) / h_max)
    ts, xs, ys = array("d", (t,)), array("d", (x,)), array("d", (y,))
    accepted, rejected = _kernel(sys)(
        t, x, y, h_max, tol, t_end, section, budget, ts.append, xs.append, ys.append)
    return Trajectory._of_arrays(ts, xs, ys, accepted, rejected, tol)


def _mirrored(half: Trajectory) -> Trajectory:
    """The closed orbit of an odd system from a half pass.

    half runs upward from (0, +0.0, -y0) to (T_h, x_h, y_h) near
    (T_h, 0, y0).  Its mirror image (t, -x, -y), which starts at
    (0, +0.0, y0), comes first; every sample of half after its first,
    shifted to (T_h + t, x, y), follows, so the orbit ends at
    (2 T_h, x_h, y_h) with twice the half's step counts.
    """
    t, x, y = half.t.obj, half.x.obj, half.y.obj  # the arrays the columns view
    th = t[-1]
    ts = t[:]
    ts.fromlist([th + v for v in t[1:]])
    xs = array("d", [-v for v in x])
    xs[0] = 0.0
    xs += x[1:]
    ys = array("d", [-v for v in y])
    ys += y[1:]
    return Trajectory._of_arrays(ts, xs, ys, 2 * half.accepted_steps,
                                 2 * half.rejected_steps, half.tol_used)


def integrate(sys: LienardSystem, s0: State, t_end: float, tol: float) -> Trajectory:
    """Integrate the flow from s0 to t_end with local error <= tol per step.

    Emits a sample at every accepted step (the last lands on t_end
    exactly).  Raises IntegrationError on step-size underflow, non-finite
    states or an exhausted step budget (see _march), and ValueError when
    eps < EPS_FLOOR or t_end is not finite.
    """
    if not (t_end > s0.t and math.isfinite(t_end)):
        raise ValueError("t_end must be finite and exceed the initial time")
    return _march(sys, s0, tol, t_end)


def find_limit_cycle(
    sys: LienardSystem, y_guess: float, tol: float, integ_tol: float = 1e-10
) -> LimitCycle:
    """Iterate a Poincare return map on the section {x = 0, xdot > 0}.

    Tangents are horizontal on the y-axis, so the crossing is transversal
    and well conditioned.  Every pass is a section pass of _march, to the
    next upward crossing.  When F and g are odd (F(0) = 0 included), the
    flow commutes with (x, y) -> (-x, -y), and the map iterated is the
    half-period map: a pass runs from the mirrored start (0, -y_k) up to
    (0, y_{k+1}), the mirror image of the half period from (0, y_k) down
    to (0, -y_{k+1}).  Its fixed point is the cycle's, which is symmetric
    because the mirror of a cycle is a cycle (Perko, Differential
    Equations and Dynamical Systems, 3.8, makes it unique).  Any other
    system iterates the full-period map: a pass runs from (0, y_k) to the
    next upward crossing (0, y_{k+1}).  The pass with |y_{k+1} - y_k| <= tol,
    or the last one after MAX_PASSES, gives the orbit: the full pass, or
    the mirror of the half pass followed by the pass (see _mirrored).  The
    orbit starts at (0, y_k), the previous iterate, and ends on the section
    at t = period with y = section_value = y_{k+1}, so it closes to within
    tol.  Non-convergence returns converged=False with that last pass; a
    missing return raises IntegrationError, whose (x, y) a half pass
    mirrors back, and eps < EPS_FLOOR raises ValueError.
    """
    if not y_guess > 0:
        raise ValueError("y_guess must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")

    half = not any(sys.F.num[0::2]) and not any(sys.g.num[0::2])
    iterates = [float(y_guess)]
    converged = False
    for _ in range(MAX_PASSES):
        try:
            orbit = _march(sys, State(0.0, 0.0, -iterates[-1] if half else iterates[-1]),
                           integ_tol)
        except IntegrationError as e:
            if half:
                e.x, e.y = -e.x, -e.y
            raise
        iterates.append(orbit.y[-1])
        if abs(iterates[-1] - iterates[-2]) <= tol:
            converged = True
            break
    # the mirror's |x| values are the half pass's, so its largest is the orbit's
    amplitude_x = max(map(abs, orbit.x))
    if half:
        orbit = _mirrored(orbit)

    return LimitCycle(
        period=orbit.t[-1],
        section_value=iterates[-1],
        orbit=orbit,
        amplitude_x=amplitude_x,
        converged=converged,
        iterations=len(iterates) - 1,
        iterates=tuple(iterates),
    )


def _descent_ys(sys: LienardSystem, traj: Trajectory, probes: "list[float]"
                ) -> "tuple[list[float | None], tuple[float, float]]":
    """y on the orbit's descent (x decreasing) at each probe abscissa, and the x-range walked.

    One walk along the orbit serves every probe; `probes` must be
    ascending.  A probe takes y from the cubic Hermite interpolant of the
    first descending step whose x-span holds it, and stays None when no
    step does.  On a step, x and y are cubics in s = (t - t0)/(t1 - t0),
    fixed by the step's end values and the field's slopes there, from F and
    g at each end; x(s) = probe is solved by three Newton steps from the
    chord point.  The interpolant's error is O(h**4), where the chord's is
    O(h**2).  The walk stops once every probe has its y, so the x-range of
    the descending steps it walked is the whole descent's when some probe
    has none.
    """
    ys: "list[float | None]" = [None] * len(probes)
    left, lo, hi, eps = len(probes), math.inf, -math.inf, sys.eps
    it = zip(traj.t, traj.x, traj.y)
    t0, x0, y0 = next(it)
    for t1, x1, y1 in it:
        if x1 < x0:
            lo, hi = (x1 if x1 < lo else lo), (x0 if x0 > hi else hi)
            ax0 = None
            for i in range(bisect_left(probes, x1), bisect_right(probes, x0)):
                if ys[i] is None:
                    if ax0 is None:
                        # h times the slopes dx/dt and dy/dt at each end
                        h = t1 - t0
                        ax0, ay0 = h * (y0 - sys.F(x0)) / eps, -h * sys.g(x0)
                        ax1, ay1 = h * (y1 - sys.F(x1)) / eps, -h * sys.g(x1)
                        dx, dy = x1 - x0, y1 - y0
                    px = probes[i]
                    s = (x0 - px) / (x0 - x1)
                    for _ in range(3):
                        b = (1.0 - 2.0 * s) * dx + (s - 1.0) * ax0 + s * ax1
                        x_s = x0 + s * (dx + (s - 1.0) * b)
                        dx_ds = dx + (2.0 * s - 1.0) * b + s * (s - 1.0) * (ax0 + ax1 - 2.0 * dx)
                        s -= (x_s - px) / dx_ds
                    ys[i] = y0 + s * (dy + (s - 1.0) * ((1.0 - 2.0 * s) * dy + (s - 1.0) * ay0
                                                        + s * ay1))
                    left -= 1
            if not left:
                break
        t0, x0, y0 = t1, x1, y1
    return ys, (lo, hi)


def _scan_lines() -> "list[str]":
    """The vicinity scan's factory body (see system.specialized).

    The scan is scan(xs, ys, x_min, band) -> (lo, hi, nearest): the first
    of the longest runs xs[lo:hi] of samples that qualify, and the
    smallest distance d = |y - y_ref(x)| of a sample in the descending
    window (x >= x_min, xdot = (y - F(x))/eps < 0), inf when none is.  A
    window sample qualifies when d <= band; a sample outside the window
    never does, whatever the band.  y_ref is the slow branch, from
    curvature._BRANCH_TEMPLATE's steps, or F(x) where it has none.  Only
    window samples evaluate F and, below xdot's test, f, g and g'.
    """
    lines = [
        "def scan(xs, ys, x_min, band):",
        "    best_lo = best_hi = lo = 0",  # runs are index ranges [lo, i)
        "    nearest = inf",
        "    for i, (x, y) in enumerate(zip(xs, ys)):",
        "        if not x < x_min:",
        "            F = F(x)",
        "            if not (y - F) / eps >= 0.0:",
        "                f = f(x)",
        "                g = g(x)",
        "                gp = gp(x)",
        *(f"                {line}" for line in _BRANCH_TEMPLATE.splitlines()),
        "                d = abs(y - (F if y_slow is None else y_slow))",
        "                if d < nearest:",
        "                    nearest = d",
        "                if d <= band:",
        "                    continue",
        "        if i - lo > best_hi - best_lo:",
        "            best_lo, best_hi = lo, i",
        "        lo = i + 1",
        "    if len(xs) - lo > best_hi - best_lo:",
        "        best_lo, best_hi = lo, len(xs)",
        "    return best_lo, best_hi, nearest",
    ]
    return [f"    {line}" for line in lines] + ["    return scan"]


_scan = specialized(_scan_lines, "vicinity scan", _BRANCH_ENV)


def extract_vicinity(
    traj: Trajectory,
    sys: LienardSystem,
    c: float,
    x_min: float | None = None,
) -> VicinitySegment:
    """Maximal contiguous run of samples in the slow-branch band.

    A sample qualifies when it lies in the descending window, x >= x_min
    (default: VICINITY_MARGIN beyond the zero a of F in (0, max x of traj],
    which the cycle crosses) with xdot < 0, and |y - y_ref(x)| <= c*eps,
    where y_ref is the slow branch or, where it has none (no real root of
    the branch quadratic, a fold included), the critical manifold it
    degenerates toward.  A sample outside the window never qualifies, so
    c = inf takes the longest run of window samples.  The samples are
    scanned by the system's compiled scan (_scan_lines).  A caller's x_min
    that is not at most max x of traj (NaN included) is an input error and
    raises ValueError.
    Raises IntegrationError when no sample qualifies (naming c*eps and the
    nearest window sample's distance when some sample is in the window),
    or when the default finds several zeros, or none while F is not
    negative on (0, max x], a sign decided exactly (poly.signs_on).
    """
    if not c > 0:
        raise ValueError("band must be positive")
    top = max(traj.x)
    if x_min is not None and not x_min <= top:
        raise ValueError(f"x_min={x_min} lies beyond the orbit, whose largest x is {top:.6g}")
    if x_min is None:
        zeros = positive_zeros_of_F(sys, top) if top > 0.0 else []
        if len(zeros) > 1 or (not zeros and top > 0.0 and -1 not in signs_on(sys.F, 0.0, top)):
            raise IntegrationError("cannot locate the positive zero of F")
        x_min = zeros[0] + VICINITY_MARGIN if zeros else math.inf  # a lies beyond the orbit
    band = c * sys.eps
    best_lo, best_hi, nearest = _scan(sys)(traj.x, traj.y, x_min, band)
    if best_lo == best_hi:
        if nearest == math.inf:
            raise IntegrationError("trajectory does not visit the slow vicinity (integrate longer)")
        raise IntegrationError(
            f"trajectory does not visit the slow vicinity: no descending sample lies within"
            f" band*eps = {band:.3g} of the slow branch (the nearest lies {nearest:.3g} from it)")
    run = slice(best_lo, best_hi)
    xs = traj.x[run]
    return VicinitySegment(samples=tuple(map(State, traj.t[run], xs, traj.y[run])),
                           x_range=(min(xs), max(xs)), band_width=band)


TRAJECTORY_CSV_HEADER = "t,x,y,xdot,ydot,phi,E,dEdt"


def _trajectory_row() -> "list[str]":
    """The trajectory writer's row: the sample and its jet columns (system.jet_code), as reprs."""
    columns = TRAJECTORY_CSV_HEADER.split(",")
    cells = ",".join(f"{{{c}!r}}" for c in columns)
    return [*jet_code(columns[3:]), f'append(f"{cells}")']


_trajectory_writer = compile_writer("ts, xs, ys", ["for t, x, y in zip(ts, xs, ys):"],
                                    _trajectory_row, TRAJECTORY_CSV_HEADER, "trajectory csv")


def format_trajectory_csv(sys: LienardSystem, traj: Trajectory) -> str:
    """CSV export with derivative and diagnostic columns computed per sample.

    The rows are bit for bit those of system.jet at each sample,
    written by the system's compiled writer (system.compile_writer).
    """
    return _trajectory_writer(sys)(traj.t, traj.x, traj.y)
