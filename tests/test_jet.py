"""The derivative jet against a symbolic oracle, and the work it does per point."""

from fractions import Fraction

import pytest

from flowcurv import State, jet, make_system
from flowcurv.dynamics import Trajectory, format_trajectory_csv
from flowcurv.poly import Polynomial
from flowcurv.verify import sample_margins

from conftest import load_config, sweep_states

ORACLE_SYSTEMS = {
    "vdp": (load_config("vdp")["F"], load_config("vdp")["g"], 0.05),
    "llibre_mereu": (load_config("llibre_mereu")["F"], load_config("llibre_mereu")["g"], 0.05),
    "asymmetric": ([0.3, -1.7, 0.2, 0.9], [0.1, 1.3, 0.5, 0.7], 0.05),
}


def symbolic_jet(F_coeffs, g_coeffs, eps):
    """Every jet field as the terms of a sympy polynomial in x, y.

    Coefficients and eps enter as the exact rationals of their floats.
    Time derivatives are Lie derivatives along the field, and H is built
    from its definition G'**2 - 2*G*G'' with G the antiderivative of g
    vanishing at 0, so no closed form of the numeric code is reused.
    Returns each field's terms (i, j, c), meaning c*x**i*y**j.
    """
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    e = sp.Rational(Fraction(eps))
    F = sum(sp.Rational(Fraction(c)) * x**k for k, c in enumerate(F_coeffs))
    g = sum(sp.Rational(Fraction(c)) * x**k for k, c in enumerate(g_coeffs))
    G = sp.integrate(g, (x, 0, x))
    xdot = (y - F) / e
    ydot = -g

    def ddt(expr):
        return sp.diff(expr, x) * xdot + sp.diff(expr, y) * ydot

    xddot, yddot = ddt(xdot), ddt(ydot)
    phi = xddot * ydot - yddot * xdot
    E = e * xdot**2 / 2 + G
    H = sp.diff(G, x) ** 2 - 2 * G * sp.diff(G, x, 2)
    fields = {
        "F": F, "f": sp.diff(F, x), "fp": sp.diff(F, x, 2), "g": g,
        "gp": sp.diff(g, x), "gpp": sp.diff(g, x, 2), "G": G,
        "xdot": xdot, "ydot": ydot, "xddot": xddot, "yddot": yddot,
        "xdddot": ddt(xddot), "ydddot": ddt(yddot),
        "phi": phi, "phi_dot": ddt(phi), "E": E, "dEdt": ddt(E), "H": H, "dHdt": ddt(H),
    }
    return {k: [(i, j, Fraction(int(c.p), int(c.q))) for (i, j), c in sp.Poly(v, x, y).terms()]
            for k, v in fields.items()}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_jet_matches_symbolic_oracle(name):
    F_coeffs, g_coeffs, eps = ORACLE_SYSTEMS[name]
    terms_of = symbolic_jet(F_coeffs, g_coeffs, eps)
    sys_ = make_system(F_coeffs, g_coeffs, eps)
    for s in sweep_states(50):
        X, Y = Fraction(s.x), Fraction(s.y)
        got = jet(sys_, s)._asdict()
        assert set(got) == set(terms_of)
        for field, terms in terms_of.items():
            values = [c * X**i * Y**j for i, j, c in terms]
            # 1e-12 of the largest term of the expanded polynomial; one that
            # is identically zero (no terms) must come out as exactly zero.
            scale = max(map(abs, values), default=0)
            assert abs(Fraction(got[field]) - sum(values)) <= Fraction(1e-12) * scale, (
                name, field, s)


def count_evaluations(monkeypatch):
    calls = []
    plain = Polynomial.__call__

    def counted(self, x):
        calls.append(x)
        return plain(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    return calls


def test_check_sample_evaluates_seven_polynomials(llibre_mereu, monkeypatch):
    calls = count_evaluations(monkeypatch)
    sample_margins(llibre_mereu, State(0.0, 1.5, -0.2))
    assert len(calls) == 7


def test_csv_row_evaluates_seven_polynomials(llibre_mereu, monkeypatch):
    samples = tuple(State(0.1 * i, 1.5 - 0.01 * i, -0.2) for i in range(10))
    traj = Trajectory(samples=samples, accepted_steps=9, rejected_steps=0, tol_used=1e-9)
    calls = count_evaluations(monkeypatch)
    text = format_trajectory_csv(llibre_mereu, traj)
    assert len(text.strip().split("\n")) == 11
    assert len(calls) == 7 * 10
