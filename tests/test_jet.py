"""The derivative jet against a symbolic oracle, its identity rows proved
by sympy, its polynomial values and the generated writers against
Polynomial.__call__, and the work they do per point."""

import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcurv import State, curvature, integrate, jet, make_system
from flowcurv.curvature import MANIFOLD_CSV_HEADER, format_manifold_csv, slow_branches
from flowcurv.dynamics import (TRAJECTORY_CSV_HEADER, Trajectory, extract_vicinity,
                               format_trajectory_csv)
from flowcurv.poly import Polynomial
from flowcurv.system import JET_FORMULAS, _jet
from flowcurv.verify import sample_margins

from conftest import load_config, sweep_states, system_from_config

ORACLE_SYSTEMS = {
    "vdp": (load_config("vdp")["F"], load_config("vdp")["g"], 0.05),
    "llibre_mereu": (load_config("llibre_mereu")["F"], load_config("llibre_mereu")["g"], 0.05),
    "asymmetric": ([0.3, -1.7, 0.2, 0.9], [0.1, 1.3, 0.5, 0.7], 0.05),
}


# The table's identity rows: each residual is the zero polynomial.
RESIDUALS = {name: text for name, text in JET_FORMULAS if name.endswith("_residual")}


def symbolic_fields(F_coeffs, g_coeffs, eps):
    """Every jet field but the residuals as a sympy polynomial in x, y.

    Coefficients and eps enter as the exact rationals of their floats.
    Time derivatives are Lie derivatives along the field, and H is built
    from its definition G'**2 - 2*G*G'' with G the antiderivative of g
    vanishing at 0, so no closed form of the numeric code is reused.
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
    fields["relation_rate"] = ddt(2 * fields["gp"] * E + H)
    return fields


def symbolic_jet(F_coeffs, g_coeffs, eps):
    """symbolic_fields as terms (i, j, c), meaning c*x**i*y**j, per field."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    return {k: [(i, j, Fraction(int(c.p), int(c.q))) for (i, j), c in sp.Poly(v, x, y).terms()]
            for k, v in symbolic_fields(F_coeffs, g_coeffs, eps).items()}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_jet_matches_symbolic_oracle(name):
    F_coeffs, g_coeffs, eps = ORACLE_SYSTEMS[name]
    terms_of = symbolic_jet(F_coeffs, g_coeffs, eps)
    sys_ = make_system(F_coeffs, g_coeffs, eps)
    for s in sweep_states(50):
        X, Y = Fraction(s.x), Fraction(s.y)
        got = jet(sys_, s)._asdict()
        assert set(got) == set(terms_of) | set(RESIDUALS)
        for field, terms in terms_of.items():
            values = [c * X**i * Y**j for i, j, c in terms]
            # 1e-12 of the largest term of the expanded polynomial; one that
            # is identically zero (no terms) must come out as exactly zero.
            scale = max(map(abs, values), default=0)
            assert abs(Fraction(got[field]) - sum(values)) <= Fraction(1e-12) * scale, (
                name, field, s)


# Each identity row's text, read by sympy over the oracle's fields with its
# float literals as exact rationals, expands to exactly 0: the row states an
# identity of the flow, not one of the numeric code's other rows.
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_identity_rows_are_zero_polynomials(name):
    sp = pytest.importorskip("sympy")
    F_coeffs, g_coeffs, eps = ORACLE_SYSTEMS[name]
    fields = {**symbolic_fields(F_coeffs, g_coeffs, eps),
              "y": sp.Symbol("y"), "eps": sp.Rational(Fraction(eps))}
    assert len(RESIDUALS) == 4
    for row, text in RESIDUALS.items():
        assert sp.expand(sp.sympify(text, locals=fields, rational=True)) == 0, (name, row)


def count_evaluations(monkeypatch):
    calls = []
    plain = Polynomial.__call__

    def counted(self, x):
        calls.append(x)
        return plain(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    return calls


def count_unit_calls(sys_, unit):
    """Wrap the unit bound in sys_ (a fresh system: the wrapper is never removed)."""
    calls = []
    plain = unit(sys_)

    def counted(*args):
        calls.append(args)
        return plain(*args)

    sys_._bound[unit] = counted
    return calls


# The seven polynomials are evaluated inline by one call of the system's jet
# unit per point; Polynomial.__call__ is not reached at all.
def test_check_sample_evaluates_seven_polynomials(monkeypatch):
    sys_ = system_from_config("llibre_mereu")
    calls = count_evaluations(monkeypatch)
    jet_calls = count_unit_calls(sys_, _jet)
    sample_margins(sys_, State(0.0, 1.5, -0.2))
    assert len(calls) == 0
    assert jet_calls == [(1.5, -0.2)]


# The CSV writers compile the Horner code of the polynomials their rows read
# into their loops: neither calls Polynomial.__call__.
def test_csv_row_evaluates_seven_polynomials(monkeypatch):
    sys_ = system_from_config("llibre_mereu")
    samples = tuple(State(0.1 * i, 1.5 - 0.01 * i, -0.2) for i in range(10))
    traj = Trajectory._of_arrays(*(array("d", col) for col in zip(*samples)), 9, 0, 1e-9)
    calls = count_evaluations(monkeypatch)
    text = format_trajectory_csv(sys_, traj)
    assert len(text.strip().split("\n")) == 11
    text = format_manifold_csv(sys_, -2.0, 2.0, 41)
    assert len(text.strip().split("\n")) == 42
    assert len(calls) == 0


# A row is one call of the system's slow-branch unit, which evaluates F, f,
# g and g' inline.
def test_branch_table_row_is_one_evaluator_call(monkeypatch):
    sys_ = system_from_config("vdp")
    calls = count_evaluations(monkeypatch)
    branch_calls = count_unit_calls(sys_, curvature._branch)
    xs = [-2.0 + 0.1 * i for i in range(41)]
    for x in xs:
        slow_branches(sys_, x)
    assert len(calls) == 0
    assert branch_calls == [(x,) for x in xs]


def test_vicinity_evaluates_no_polynomial(monkeypatch):
    sys_ = system_from_config("vdp")
    traj = integrate(sys_, State(0.0, 2.0, 0.5), 3.0, 1e-9)
    calls = count_evaluations(monkeypatch)
    extract_vicinity(traj, sys_, 1.0, x_min=1.0)
    assert len(calls) == 0


# --- the jet's polynomial values against Polynomial.__call__ ---------------

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
        got = jet(sys_, State(0.0, x, 0.5))[:7]
        want = tuple(p(x) for p in polys)
        assert all(math.isfinite(v) for v in want), (name, x)
        assert [v.hex() for v in got] == [v.hex() for v in want], (name, x)


def test_evaluator_code_is_shared_by_zero_pattern():
    a = make_system([0.0, -1.0, 0.0, 1 / 3], [0.0, 1.0], 0.05)
    b = make_system([0.0, -2.0, 0.0, 0.25], [0.0, 3.0], 0.01)
    c = make_system([1.0, -2.0, 0.5, 0.25], [0.0, 3.0], 0.01)  # same counts, other zeros
    assert _jet(a) is not _jet(b)
    assert _jet(a).__code__ is _jet(b).__code__
    assert _jet(c).__code__ is not _jet(a).__code__
    assert _jet(a)(2.0, 0.5) != _jet(b)(2.0, 0.5)


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

    u = g*w with g'w**2 + f*w + eps = 0, solved with s = f + sign(f)*sqrt(disc):
    w = -2*eps/s and -s/2/g'.
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
    s = fx + math.copysign(math.sqrt(abs(disc)), fx)
    r1, r2 = gx * (-2.0 * eps / s), gx * (-s / 2.0 / gpx)
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
    text = format_manifold_csv(sys_, -2.0, 2.0, 801)
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


# --- the compiled writers against the per-point path ------------------------

def trajectory_of(ts, xs, ys):
    return Trajectory._of_arrays(array("d", ts), array("d", xs), array("d", ys), 0, 0, 1e-9)


def jet_csv(sys_, traj):
    """The trajectory CSV from one jet call per sample."""
    lines = [TRAJECTORY_CSV_HEADER]
    for t, x, y in zip(traj.t, traj.x, traj.y):
        j = jet(sys_, State(t, x, y))
        lines.append(",".join(map(repr, (t, x, y, j.xdot, j.ydot, j.phi, j.E, j.dEdt))))
    return "\n".join(lines) + "\n"


def slow_branches_csv(sys_, x_lo, x_hi, n):
    """The manifold CSV from one slow_branches call per row.

    The first row holding inf or nan raises the writer's ValueError.
    """
    step = (x_hi - x_lo) / (n - 1)
    lines = [MANIFOLD_CSV_HEADER]
    for i in range(n):
        x, u_slow, u_fast, y_slow, fold = slow_branches(sys_, x_lo + i * step)
        if not all(math.isfinite(v) for v in (x, y_slow, u_slow, u_fast) if v is not None):
            raise ValueError(f"the slow-branch row at x={x!r} overflows float range")
        cells = ["" if v is None else repr(v) for v in (x, y_slow, u_slow, u_fast)]
        lines.append(",".join(cells + ["true" if fold else "false"]))
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


COEFFICIENTS = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 1 / 3, 3.0]),
                         st.floats(-10.0, 10.0))


@st.composite
def polynomials(draw, odd):
    """Coefficients ascending, degree up to 9; odd ones keep only odd powers."""
    cs = draw(st.lists(COEFFICIENTS, min_size=1, max_size=10))
    return [0.0 if odd and k % 2 == 0 else c for k, c in enumerate(cs)]


@st.composite
def systems(draw):
    """(F, g, eps): odd or not, interior zeros, and sometimes a leading g
    coefficient of 5e-324, whose G coefficient rounds to 0.0 (underflowing_G)."""
    odd = draw(st.booleans())
    F, g = draw(polynomials(odd)), draw(polynomials(odd))
    if draw(st.booleans()):
        g = g[:8] + [0.0] * (odd and len(g[:8]) % 2 == 0) + [5e-324]
    return F, g, draw(st.sampled_from([1e-3, 0.05, 0.3, 2.0]))


@st.composite
def grids(draw):
    """(x_lo, x_hi, n): half of them dyadic and symmetric, so x = 0 and +-1 are rows."""
    if draw(st.booleans()):
        half = draw(st.sampled_from([1.0, 2.0, 4.0]))
        return -half, half, 2 ** draw(st.integers(1, 7)) + 1
    lo, hi = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2, unique=True)))
    return lo, hi, draw(st.integers(2, 200))


SAMPLES = st.lists(st.tuples(st.floats(0.0, 100.0),
                             st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                       st.floats(-4.0, 4.0)),
                             st.floats(-4.0, 4.0)), min_size=1, max_size=40)

# Systems whose grids hold every row kind the writer has: folds (vdp at
# x = +-1, F = x**3 at x = 0), rows with no real root, g' = 0 rows (the
# linear limit: g constant, or g = x**3 at x = 0), an underflowing G
# coefficient, and rows that overflow float range.
WRITER_EXAMPLES = [
    (([0.0, -1.0, 0.0, 1 / 3], [0.0, 1.0], 0.05), (-2.0, 2.0, 65)),
    (([0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.5], 0.05), (-1.0, 1.0, 9)),
    (([0.0, -1.0, 0.0, 1 / 3], [0.0, 0.0, 0.0, 1.0], 0.3), (-1.0, 1.0, 9)),
    (([0.0, -1.0, 0.0, 1 / 3], [1.0], 0.05), (-2.0, 2.0, 17)),
    (([0.0] * 7 + [1.0], [0.0] * 5 + [5e-324], 0.05), (-2.0, 2.0, 33)),
    (([0.0, -1.0, 0.0, 1 / 3, 0.0, 0.2], [0.0, 1.0, 0.0, 1 / 3], 0.05), (1e100, 1e101, 3)),
]
# f is the smallest subnormal, 5e-324, and f*f and 4*eps*g' underflow to 0:
# s = f + sign(f)*sqrt|disc| is 5e-324, whose half rounds to 0, so a root
# that divided by s/2 would raise ZeroDivisionError.  w = -2*eps/s is -inf
# instead: where g is not 0 the first row overflows (g = 1: u_slow = -inf;
# g = 5e-324*x at x = -1: inf), and where g is 0 every root is 0 = g*w.
SUBNORMAL_F_EXAMPLES = [(([0.0, 5e-324], g, 1e-3), (-1.0, 1.0, 3))
                        for g in ([1.0], [0.0], [0.0, 5e-324])]


def row_kinds(text):
    rows = text.split("\n")[1:-1]
    return {"fold": any(r.endswith(",true") for r in rows),
            "no root": any(r.endswith(",,,,false") for r in rows),
            "linear": any(r.endswith(",,false") and not r.endswith(",,,,false") for r in rows),
            "both": any(",," not in r for r in rows)}


def test_writer_examples_hold_every_row_kind():
    *texts, overflow = [outcome(slow_branches_csv, make_system(*sys_args), *grid)
                        for sys_args, grid in WRITER_EXAMPLES]
    for kind in ("fold", "no root", "linear", "both"):
        assert any(row_kinds(text)[kind] for text in texts), kind
    assert "0.0,0.0,0.0,,false" in texts[2].split("\n")  # g' = 0 at x = 0 only
    assert make_system(*WRITER_EXAMPLES[4][0]).G.desc[0] == 0.0  # G's lead underflows
    assert overflow == "ValueError: the slow-branch row at x=1e+100 overflows float range"
    for sys_args, grid in SUBNORMAL_F_EXAMPLES:
        assert make_system(*sys_args).f.desc == (5e-324,)
    refused, zero_g, refused_too = [outcome(slow_branches_csv, make_system(*sys_args), *grid)
                                    for sys_args, grid in SUBNORMAL_F_EXAMPLES]
    assert refused == refused_too == (
        "ValueError: the slow-branch row at x=-1.0 overflows float range")
    # g = 0, so g' = 0 too: u_slow is -0.0 (g = +0.0 times w < 0), u_fast is empty
    assert zero_g.split("\n") == [MANIFOLD_CSV_HEADER, "-1.0,-5e-324,-0.0,,false",
                                   "0.0,0.0,-0.0,,false", "1.0,5e-324,-0.0,,false", ""]


def writer_example(f):
    for sys_args, grid in WRITER_EXAMPLES + SUBNORMAL_F_EXAMPLES:
        f = example(sys_args, grid, [(0.0, grid[0], 0.5), (1.0, grid[1], -0.5)])(f)
    return f


@writer_example
@given(systems(), grids(), SAMPLES)
@settings(max_examples=150, deadline=None)
def test_compiled_writers_match_the_per_point_path(sys_args, grid, samples):
    sys_ = make_system(*sys_args)
    traj = trajectory_of(*zip(*samples))
    assert first_difference(format_trajectory_csv(sys_, traj), jet_csv(sys_, traj)) is None
    got, want = outcome(format_manifold_csv, sys_, *grid), outcome(slow_branches_csv, sys_, *grid)
    assert first_difference(got, want) is None
