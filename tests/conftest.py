"""Shared fixtures: the two bundled systems, a deterministic state sweep, the
Jacobian oracle (the field's Jacobian and its rate along the flow, from
Polynomial evaluation, independent of system.jet), and a reference DP5(4)
step with one rhs call per stage, independent of the program's generated
march."""

from __future__ import annotations

import json
import pathlib
import tracemalloc

import pytest

from flowcurv import State, make_system
from flowcurv.poly import horner

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def sweep_states(n: int, lo: float = -3.0, hi: float = 3.0) -> list[State]:
    """Deterministic low-discrepancy states in [lo, hi]^2 (no RNG anywhere)."""
    span = hi - lo
    return [
        State(0.0, lo + span * halton(i, 2), lo + span * halton(i, 3))
        for i in range(1, n + 1)
    ]


def horner_rhs(sys_):
    """The vector field through poly.horner, one call per component."""
    Fc, gc, eps = sys_.F.desc, sys_.g.desc, sys_.eps

    def rhs(x, y):
        return (y - horner(Fc, x)) / eps, -horner(gc, x)

    return rhs


def reference_dp_step(rhs, x, y, h, k1x, k1y):
    """One Dormand-Prince 5(4) step with one rhs call per stage: the march's oracle."""
    x2 = x + h * (1 / 5 * k1x)
    y2 = y + h * (1 / 5 * k1y)
    k2x, k2y = rhs(x2, y2)
    x3 = x + h * (3 / 40 * k1x + 9 / 40 * k2x)
    y3 = y + h * (3 / 40 * k1y + 9 / 40 * k2y)
    k3x, k3y = rhs(x3, y3)
    x4 = x + h * (44 / 45 * k1x + -56 / 15 * k2x + 32 / 9 * k3x)
    y4 = y + h * (44 / 45 * k1y + -56 / 15 * k2y + 32 / 9 * k3y)
    k4x, k4y = rhs(x4, y4)
    a5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
    x5 = x + h * (a5[0] * k1x + a5[1] * k2x + a5[2] * k3x + a5[3] * k4x)
    y5 = y + h * (a5[0] * k1y + a5[1] * k2y + a5[2] * k3y + a5[3] * k4y)
    k5x, k5y = rhs(x5, y5)
    a6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
    x6 = x + h * (a6[0] * k1x + a6[1] * k2x + a6[2] * k3x + a6[3] * k4x + a6[4] * k5x)
    y6 = y + h * (a6[0] * k1y + a6[1] * k2y + a6[2] * k3y + a6[3] * k4y + a6[4] * k5y)
    k6x, k6y = rhs(x6, y6)
    b = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
    xn = x + h * (b[0] * k1x + b[1] * k3x + b[2] * k4x + b[3] * k5x + b[4] * k6x)
    yn = y + h * (b[0] * k1y + b[1] * k3y + b[2] * k4y + b[3] * k5y + b[4] * k6y)
    k7x, k7y = rhs(xn, yn)
    e = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
    ex = h * (e[0] * k1x + e[1] * k3x + e[2] * k4x + e[3] * k5x + e[4] * k6x + e[5] * k7x)
    ey = h * (e[0] * k1y + e[1] * k3y + e[2] * k4y + e[3] * k5y + e[4] * k6y + e[5] * k7y)
    return xn, yn, ex, ey, k7x, k7y


def propagate(sys_, x: float, y: float, h: float, n_sub: int = 1) -> tuple[float, float]:
    """n_sub fixed reference DP5(4) steps of total length h.

    No error control (event refinement, finite differences); h < 0 steps
    backward, bit for bit like stepping the negated field forward.
    """
    rhs = horner_rhs(sys_)
    hs = h / n_sub
    for _ in range(n_sub):
        x, y = reference_dp_step(rhs, x, y, hs, *rhs(x, y))[:2]
    return x, y


def jacobian(sys_, x: float):
    """Jacobian of the vector field, by rows: ((-f(x)/eps, 1/eps), (-g'(x), 0))."""
    return ((-sys_.f(x) / sys_.eps, 1.0 / sys_.eps),
            (-sys_.gp(x), 0.0))


def jacobian_rate(sys_, s: State):
    """dJ/dt along the flow, by rows: ((-f'(x)*xdot/eps, 0), (-g''(x)*xdot, 0))."""
    xdot = (s.y - sys_.F(s.x)) / sys_.eps
    return ((-sys_.fp(s.x) * xdot / sys_.eps, 0.0),
            (-sys_.gpp(s.x) * xdot, 0.0))


def load_config(name: str) -> dict:
    with open(CONFIGS / f"{name}.json") as fh:
        return json.load(fh)


def system_from_config(name: str, eps: float | None = None):
    cfg = load_config(name)
    return make_system(cfg["F"], cfg["g"], eps if eps is not None else cfg["eps"])


@pytest.fixture(scope="session")
def vdp():
    """Van der Pol: F = x^3/3 - x, g = x, eps = 0.05."""
    return system_from_config("vdp")


@pytest.fixture(scope="session")
def llibre_mereu():
    """Quintic example: F = x^5/5 + x^3/3 - x, g = x^3/3 + x, eps = 0.05."""
    return system_from_config("llibre_mereu")


@pytest.fixture(scope="session")
def both_systems(vdp, llibre_mereu):
    return [vdp, llibre_mereu]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes (tracemalloc)."""
    fn(*args)  # warm-up: a compiled unit is cached, not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak
