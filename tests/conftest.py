"""Shared fixtures: the two bundled systems, a deterministic state sweep, and
the Jacobian oracle (the field's Jacobian and its rate along the flow, from
Polynomial evaluation, independent of system.jet)."""

from __future__ import annotations

import json
import pathlib

import pytest

from flowcurv import State, make_system
from flowcurv.dynamics import _step_kernel

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


def propagate(sys_, x: float, y: float, h: float, n_sub: int = 1) -> tuple[float, float]:
    """n_sub fixed DP5(4) steps of total length h through the program's kernel.

    No error control (event refinement, finite differences); h < 0 steps
    backward, bit for bit like stepping the negated field forward.
    """
    step = _step_kernel(sys_)
    hs = h / n_sub
    for _ in range(n_sub):
        x, y = step(x, y, hs, (y - sys_.F(x)) / sys_.eps, -sys_.g(x))[:2]
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
