"""The derivative jet against a symbolic oracle, the compiled evaluator it
reads against Polynomial.__call__, and the work both do per point."""

import math
from array import array
from fractions import Fraction

import pytest

from flowcurv import State, integrate, jet, make_system
from flowcurv.curvature import format_manifold_csv, slow_branches, slow_manifold_table
from flowcurv.dynamics import Trajectory, extract_vicinity, format_trajectory_csv
from flowcurv.poly import Polynomial
from flowcurv.verify import sample_margins

from conftest import load_config, sweep_states, system_from_config

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


def count_evaluator_calls(sys_):
    """Wrap sys_.values (a fresh system: the wrapper is never removed)."""
    calls = []
    plain = sys_.values

    def counted(x):
        calls.append(x)
        return plain(x)

    object.__setattr__(sys_, "values", counted)
    return calls


# The seven polynomials are evaluated by one compiled evaluator call per
# point; Polynomial.__call__ is not reached at all.
def test_check_sample_evaluates_seven_polynomials(monkeypatch):
    sys_ = system_from_config("llibre_mereu")
    calls = count_evaluations(monkeypatch)
    values_calls = count_evaluator_calls(sys_)
    sample_margins(sys_, State(0.0, 1.5, -0.2))
    assert len(calls) == 0
    assert values_calls == [1.5]


def test_csv_row_evaluates_seven_polynomials(monkeypatch):
    sys_ = system_from_config("llibre_mereu")
    samples = tuple(State(0.1 * i, 1.5 - 0.01 * i, -0.2) for i in range(10))
    traj = Trajectory._of_arrays(*(array("d", col) for col in zip(*samples)), 9, 0, 1e-9)
    calls = count_evaluations(monkeypatch)
    values_calls = count_evaluator_calls(sys_)
    text = format_trajectory_csv(sys_, traj)
    assert len(text.strip().split("\n")) == 11
    assert len(calls) == 0
    assert values_calls == [s.x for s in samples]


def test_branch_table_row_is_one_evaluator_call(monkeypatch):
    sys_ = system_from_config("vdp")
    calls = count_evaluations(monkeypatch)
    values_calls = count_evaluator_calls(sys_)
    rows = slow_manifold_table(sys_, -2.0, 2.0, 41)
    assert len(calls) == 0
    assert values_calls == [r.x for r in rows]


def test_vicinity_evaluates_no_polynomial(monkeypatch):
    sys_ = system_from_config("vdp")
    traj = integrate(sys_, State(0.0, 2.0, 0.5), 3.0, 1e-9)
    calls = count_evaluations(monkeypatch)
    extract_vicinity(traj, sys_, 1.0, x_min=1.0)
    assert len(calls) == 0


# --- the compiled evaluator against Polynomial.__call__ ---------------------

EVAL_XS = (-1e30, -1234.5, -2.0, -0.7, -1e-300, -0.0, 0.0, 1e-300, 0.3, 1.0,
           1.7320508075688774, 5.5, 987.25, 1e30)


def evaluator_systems():
    degree9 = make_system([0.3, -1.7, 0.0, 0.25, 0.0, 0.0, -0.5, 0.0, 0.0, 0.125],
                          [0.0, 1.3, 0.0, -0.2, 0.05], 0.05)
    g = Polynomial([0.0, 1.0, 0.0, 1 / 3])
    shifted = make_system([0.0, -1.0, 0.0, 1 / 3], g, 0.05, G=g.antiderivative(2.5))
    # G's exact leading coefficient, 5e-324/6, rounds to the float 0.0
    underflow = make_system([0.0] * 7 + [1.0], [0.0] * 5 + [5e-324], 0.05)
    return {"vdp": system_from_config("vdp"),
            "llibre_mereu": system_from_config("llibre_mereu"),
            "degree9": degree9, "shifted_G": shifted, "underflowing_G": underflow}


@pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "degree9", "shifted_G", "underflowing_G"])
def test_evaluator_is_bitwise_polynomial_call(name):
    sys_ = evaluator_systems()[name]
    polys = (sys_.F, sys_.f, sys_.fp, sys_.g, sys_.gp, sys_.gpp, sys_.G)
    if name == "vdp":
        assert sys_.gpp.is_zero
    if name == "shifted_G":
        assert sys_.G(0.0) == 2.5
    for x in EVAL_XS + tuple(s.x for s in sweep_states(40, -40.0, 40.0)):
        got = sys_.values(x)
        want = tuple(p(x) for p in polys)
        assert all(math.isfinite(v) for v in want), (name, x)
        assert [v.hex() for v in got] == [v.hex() for v in want], (name, x)


def test_evaluator_code_is_shared_by_zero_pattern():
    a = make_system([0.0, -1.0, 0.0, 1 / 3], [0.0, 1.0], 0.05)
    b = make_system([0.0, -2.0, 0.0, 0.25], [0.0, 3.0], 0.01)
    c = make_system([1.0, -2.0, 0.5, 0.25], [0.0, 3.0], 0.01)  # same counts, other zeros
    assert a.values is not b.values
    assert a.values.__code__ is b.values.__code__
    assert c.values.__code__ is not a.values.__code__
    assert a.values(2.0) != b.values(2.0)


# --- the CSV writers against a reference from Polynomial.__call__ -----------

def reference_trajectory_csv(sys_, traj):
    eps = sys_.eps
    lines = ["t,x,y,xdot,ydot,phi,E,dEdt"]
    for s in traj.samples:
        x = s.x
        xdot = (s.y - sys_.F(x)) / eps
        ydot = -sys_.g(x)
        xddot = (ydot - sys_.f(x) * xdot) / eps
        phi = xddot * ydot + sys_.gp(x) * xdot * xdot
        E = eps * xdot * xdot / 2.0 + sys_.G(x)
        dEdt = -sys_.f(x) * xdot * xdot
        lines.append(",".join(repr(v) for v in (s.t, x, s.y, xdot, ydot, phi, E, dEdt)))
    return "\n".join(lines) + "\n"


def reference_branch_row(sys_, x):
    """The branch solver's cells at x, from Polynomial.__call__ (None is empty).

    u = g*w with g'w**2 + f*w + eps = 0, solved as q = -(f + sign(f)*sqrt(disc))/2.
    """
    eps, fx, gx, gpx, Fx = sys_.eps, sys_.f(x), sys_.g(x), sys_.gp(x), sys_.F(x)
    if fx == 0.0:
        return (x, None, None, None, True)
    disc = fx * fx - 4.0 * eps * gpx
    if disc < 0.0 and gx != 0.0:
        return (x, None, None, None, False)
    if gpx == 0.0:
        u = gx * (-eps / fx)
        return (x, Fx + u, u, None, False)
    q = -(fx + math.copysign(math.sqrt(abs(disc)), fx)) / 2.0
    r1, r2 = gx * (eps / q), gx * (q / gpx)
    u_slow, u_fast = (r1, r2) if abs(r1) <= abs(r2) else (r2, r1)
    return (x, Fx + u_slow, u_slow, u_fast, False)


def reference_manifold_csv(sys_, x_lo, x_hi, n):
    step = (x_hi - x_lo) / (n - 1)
    lines = ["x,y_slow,u_slow,u_fast,fold_excluded"]
    for i in range(n):
        row = reference_branch_row(sys_, x_lo + i * step)
        cells = ["" if v is None else repr(v) for v in row[:4]]
        lines.append(",".join(cells + ["true" if row[4] else "false"]))
    return "\n".join(lines) + "\n"


def first_difference(got: str, want: str):
    """(line number, got line, wanted line) of the first mismatch, or None.

    Keeps a failure report short: pytest's own diff of two long CSV texts
    takes minutes.
    """
    a, b = got.split("\n"), want.split("\n")
    for i, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return i, u, v
    return None if len(a) == len(b) else (min(len(a), len(b)), len(a), len(b))


@pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "degree9", "shifted_G"])
def test_trajectory_csv_matches_polynomial_reference(name):
    sys_ = evaluator_systems()[name]
    traj = integrate(sys_, State(0.0, 0.1, 0.1), 2.0, 1e-9)
    got = format_trajectory_csv(sys_, traj)
    assert first_difference(got, reference_trajectory_csv(sys_, traj)) is None


@pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "degree9", "shifted_G"])
def test_manifold_csv_matches_polynomial_reference(name):
    sys_ = evaluator_systems()[name]
    text = format_manifold_csv(slow_manifold_table(sys_, -2.0, 2.0, 801))
    assert first_difference(text, reference_manifold_csv(sys_, -2.0, 2.0, 801)) is None
    if name == "vdp":
        # vdp's table holds every row kind: folds at x = +-1, rows where the
        # branch quadratic has no real root, and rows with both branches
        rows = text.split("\n")[1:-1]
        assert sum(r.endswith("true") for r in rows) == 2
        assert any(r.endswith(",,,,false") for r in rows)
        assert any(",," not in r for r in rows)


def test_branch_rows_are_plain_tuples(vdp):
    br = slow_branches(vdp, 1.8)
    assert isinstance(br, tuple) and br._fields == (
        "x", "u_slow", "u_fast", "y_slow", "fold_excluded")
    assert br == (br.x, br.u_slow, br.u_fast, br.y_slow, False)
