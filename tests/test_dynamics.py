import copy
import hashlib
import math
import pickle
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import (
    IntegrationError,
    Polynomial,
    check_assumptions,
    State,
    extract_vicinity,
    find_limit_cycle,
    integrate,
    jet,
    make_system,
    minorsky_report,
)
from flowcurv import curvature, dynamics
from flowcurv.curvature import format_manifold_csv
from flowcurv.dynamics import TRAJECTORY_CSV_HEADER, Trajectory, format_trajectory_csv

from conftest import (horner_rhs, propagate, reference_dp_step, sweep_states,
                      system_from_config, traced_peak)


def bits(values):
    return [float(v).hex() for v in values]


# F of degree 9 and g of degree 5 with zero and negative coefficients.
DEG9 = make_system([0.0, -1.0, 0.0, 0.5, -0.25, 0.0, 0.0, 0.125, 0.0, -0.0625],
                   [0.0, 1.0, 0.0, -0.3, 0.0, 0.02], 0.05)


def fd_energy_rate(sys_, s, h=1e-4, n_sub=20):
    """Fourth-order centered finite difference of E along the flow."""

    def e_at(signed_h):
        x, y = propagate(sys_, s.x, s.y, signed_h, n_sub=n_sub)
        return jet(sys_, State(0.0, x, y)).E

    return (e_at(-2 * h) - 8 * e_at(-h) + 8 * e_at(h) - e_at(2 * h)) / (12 * h)


class TestIntegrate:
    def test_bounded_attractor(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 20.0, 1e-9)
        assert max(abs(s.x) for s in traj.samples) <= 3.0
        assert max(abs(s.y) for s in traj.samples) <= 2.0

    def test_strictly_increasing_time_and_exact_landing(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 5.0, 1e-8)
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts[:-1], ts[1:]))
        assert ts[0] == 0.0
        assert ts[-1] == 5.0

    def test_rejects_bad_horizon(self, vdp):
        with pytest.raises(ValueError):
            integrate(vdp, State(1.0, 0.1, 0.1), 1.0, 1e-9)

    def test_rejects_out_of_range_tol(self, vdp):
        with pytest.raises(ValueError):
            integrate(vdp, State(0.0, 0.1, 0.1), 1.0, 1e-2)

    def test_energy_rate_consistency_along_flow(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 6.0, 1e-10)
        checked = 0
        for s in traj.samples[:: len(traj.samples) // 60]:
            closed = jet(vdp, s).dEdt
            if abs(closed) <= 1e-6:
                continue
            assert fd_energy_rate(vdp, s) == pytest.approx(closed, rel=1e-3)
            checked += 1
        assert checked > 20

    def test_blow_up_detected(self):
        runaway = make_system([0, 0, 0, -1.0], [0, 1], 0.05)  # F = -x^3
        with pytest.raises(IntegrationError, match="blow-up"):
            integrate(runaway, State(0.0, 1e80, 0.0), 1.0, 1e-6)

    def test_counters_recorded(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 2.0, 1e-9)
        assert traj.accepted_steps == len(traj.samples) - 1
        assert traj.rejected_steps >= 0
        assert traj.tol_used == 1e-9

    def test_eps_below_floor_rejected(self, vdp):
        tiny = vdp._replace(eps=1e-9)
        with pytest.raises(ValueError, match=f"eps below {dynamics.EPS_FLOOR}"):
            integrate(tiny, State(0.0, 0.1, 0.1), 1.0, 1e-9)


class TestIntegratorOrder:
    def test_fixed_step_order_at_least_four(self, vdp):
        x0, y0 = 0.1, 0.1
        span = 0.5

        def run(n):
            return propagate(vdp, x0, y0, span, n_sub=n)

        ref = run(4096)
        errs = []
        for n in (64, 128, 256):
            got = run(n)
            errs.append(math.hypot(got[0] - ref[0], got[1] - ref[1]))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 4.0
        assert order2 >= 4.0

    def test_tightening_tol_reduces_global_error(self, vdp):
        s0 = State(0.0, 0.1, 0.1)
        ref = integrate(vdp, s0, 2.0, 1e-12).samples[-1]

        def err(tol):
            end = integrate(vdp, s0, 2.0, tol).samples[-1]
            return math.hypot(end.x - ref.x, end.y - ref.y)

        e6, e7, e8 = err(1e-6), err(1e-7), err(1e-8)
        assert e7 < e6
        assert e8 < e7


# The loosest tolerance integrate accepts: it takes most first steps below.
FIRST_STEP_TOL = 1e-3


def mirrored(sys_):
    """The system whose forward flow is sys_'s backward flow in (x, -y): F becomes -F."""
    return make_system([-c for c in sys_.F.coeffs], sys_.g, sys_.eps)


def point_mirrored(sys_):
    """sys_ seen through (x, y) -> (-x, -y): F(x) becomes -F(-x), g(x) becomes -g(-x).

    An odd F and g map to themselves.
    """
    def flip(p):
        return [c if i % 2 else -c for i, c in enumerate(p.coeffs)]

    return make_system(flip(sys_.F), flip(sys_.g), sys_.eps)


def kernel(sys_):
    """sys_'s march kernel, bound as _march binds it."""
    return dynamics._kernel(sys_)


def wrap_kernels(monkeypatch, wrap):
    """Make _march run wrap(march) in place of each march kernel it binds."""
    orig = dynamics._kernel
    monkeypatch.setattr(dynamics, "_kernel", lambda sys_: wrap(orig(sys_)))


def first_step(sys_, x, y, h):
    """integrate's first step of length |h| from (x, y): (step counts, x1, y1).

    h < 0 steps backward, as the forward step of the mirrored system from
    (x, -y).  (x1, y1) is the step's end when the step is accepted; a run
    that fails after a rejected first step gives the counts it failed with.
    """
    sys_, y0 = (sys_, y) if h > 0 else (mirrored(sys_), -y)
    try:
        traj = integrate(sys_, State(0.0, x, y0), abs(h), FIRST_STEP_TOL)
    except IntegrationError as e:
        return (e.accepted, e.rejected), None, None
    assert traj.t[1] == abs(h) or traj.rejected_steps
    return (traj.accepted_steps, traj.rejected_steps), traj.x[1], math.copysign(1.0, h) * traj.y[1]


def step_accepted(x, y, ex, ey, tol=FIRST_STEP_TOL):
    """The controller's acceptance test on a step from (x, y) with error (ex, ey)."""
    return math.sqrt(0.5 * ((ex / (tol * (1.0 + abs(x)))) ** 2
                            + (ey / (tol * (1.0 + abs(y)))) ** 2)) <= 1.0


class TestStepKernel:
    """One step of the generated march against the per-stage reference step."""

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "deg9"])
    @pytest.mark.parametrize("h", [0.01, -0.01, 3e-4, -3e-4])
    def test_bitwise_equal_to_horner_reference(self, name, h):
        sys_ = DEG9 if name == "deg9" else system_from_config(name)
        rhs = horner_rhs(sys_)
        taken = 0
        for s in sweep_states(100, -1.5, 1.5):
            xn, yn, ex, ey, _, _ = reference_dp_step(rhs, s.x, s.y, h, *rhs(s.x, s.y))
            counts, x1, y1 = first_step(sys_, s.x, s.y, h)
            if step_accepted(s.x, s.y, ex, ey):
                assert counts == (1, 0)
                assert bits((x1, y1)) == bits((xn, yn))
                taken += 1
            else:
                assert counts[1] >= 1
        assert taken >= 90

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "deg9"])
    def test_backward_step_is_the_negated_field_step(self, name):
        sys_ = DEG9 if name == "deg9" else system_from_config(name)
        rhs = horner_rhs(sys_)
        rhs_back = lambda x, y: tuple(-v for v in rhs(x, y))
        taken = 0
        for s in sweep_states(100, -1.5, 1.5):
            xn, yn, ex, ey, _, _ = reference_dp_step(rhs_back, s.x, s.y, 0.004, *rhs_back(s.x, s.y))
            counts, x1, y1 = first_step(sys_, s.x, s.y, -0.004)
            assert (counts == (1, 0)) == step_accepted(s.x, s.y, ex, ey)
            if counts == (1, 0):
                assert bits((x1, y1)) == bits((xn, yn))
                taken += 1
        assert taken >= 90

    def test_code_is_shared_by_zero_pattern(self, monkeypatch):
        a, b = system_from_config("vdp"), system_from_config("vdp", eps=0.1)
        c = make_system([0.0, 2.0, 0.0, -1.0], [0.0, 3.0], 0.05)
        d = make_system([0.5, 2.0, 0.0, -1.0], [0.0, 3.0], 0.05)  # F(0) != 0
        ka, kb, kc, kd = map(kernel, (a, b, c, d))
        assert ka.__code__ is kb.__code__ is kc.__code__
        assert kd.__code__ is not ka.__code__
        # Both pass kinds, to t_end and to the section, run that one code.
        codes = []

        def recorded(march):
            codes.append(march.__code__)
            return march

        wrap_kernels(monkeypatch, recorded)
        integrate(a, State(0.0, 0.3, 0.2), 0.5, 1e-9)
        find_limit_cycle(a, 1.0, 1e-8)
        assert len(codes) >= 3 and set(codes) == {ka.__code__}
        ends = {integrate(s, State(0.0, 0.3, 0.2), 0.5, 1e-9).x[-1] for s in (a, b, c, d)}
        assert len(ends) == 4
        # The kernel reads F and g only, and the manifold writer F, f, g and
        # g': a shifted potential G shares a's code, and no writer compiles.
        e = make_system(a.F, a.g, a.eps, G=a.g.antiderivative(2.5))
        assert e.G != a.G and kernel(e).__code__ is ka.__code__
        format_manifold_csv(a, -2.0, 2.0, 5)
        writers = curvature._manifold_writer.cache_info().misses
        assert format_manifold_csv(e, -2.0, 2.0, 5) == format_manifold_csv(a, -2.0, 2.0, 5)
        assert curvature._manifold_writer.cache_info().misses == writers

    def test_one_compile_serves_both_pass_kinds(self):
        # A zero pattern no other test uses: F = x^11/1000 + x^5/5 - x, g = x^7/1000 + x.
        sys_ = make_system([0, -1, 0, 0, 0, 0.2] + [0] * 5 + [1e-3],
                           [0, 1, 0, 0, 0, 0, 0, 1e-3], 0.1)
        misses = dynamics._kernel.cache_info().misses
        integrate(sys_, State(0.0, 0.3, 0.2), 1.0, 1e-9)
        assert find_limit_cycle(sys_, 1.0, 1e-8).converged
        assert dynamics._kernel.cache_info().misses == misses + 1

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "asym"])
    def test_dense_crossing_is_fifth_order_local(self, name):
        # The upward crossing (direction 1) from (-0.05, 0.8), and the
        # downward one (direction -1) from (0.05, -0.8): the kernel finds the
        # latter as the upward crossing of the point-mirrored system from
        # (-0.05, 0.8), mirrored back.
        sys_ = pin_system(name, 0.05)
        for direction in (1, -1):
            x0, y0 = -0.05 * direction, 0.8 * direction
            # Reference crossing: bisection on 40 fixed substeps per probe.
            lo, hi = 0.0, 0.005
            while hi - lo > 1e-15:
                mid = 0.5 * (lo + hi)
                if direction * propagate(sys_, x0, y0, mid, n_sub=40)[0] < 0.0:
                    lo = mid
                else:
                    hi = mid
            y_ref = propagate(sys_, x0, y0, hi, n_sub=40)[1]
            march = kernel(sys_ if direction > 0 else point_mirrored(sys_))
            errs = []
            for h in (0.02, 0.01, 0.005):
                # h is the step cap, so the first step has length h; it crosses x = 0.
                ts, xs, ys = [0.0], [-0.05], [0.8]
                counts = march(0.0, -0.05, 0.8, h, FIRST_STEP_TOL, 1.0, True,
                               dynamics._PASS_STEP_BUDGET, ts.append, xs.append, ys.append)
                assert counts == (1, 0) and len(ts) == 2
                assert xs[-1] >= 0.0
                errs.append(max(abs(ts[-1] - hi), abs(direction * ys[-1] - y_ref)))
            assert math.log2(errs[0] / errs[1]) >= 4.5
            assert math.log2(errs[1] / errs[2]) >= 4.5


class TestFindLimitCycle:
    def test_vdp_convergence_and_amplitude(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-8)
        assert cyc.converged
        assert cyc.amplitude_x == pytest.approx(2.0, abs=0.05)
        assert cyc.period == pytest.approx(2.428906, abs=2e-4)
        assert cyc.period == pytest.approx(cyc.orbit.samples[-1].t - cyc.orbit.samples[0].t)

    def test_orbit_closes_on_section(self, vdp):
        tol = 1e-8
        cyc = find_limit_cycle(vdp, 1.0, tol)
        y_start = cyc.orbit.samples[0].y
        y_end = cyc.orbit.samples[-1].y
        assert abs(y_end - y_start) <= tol

    def test_return_map_contracts(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-12, integ_tol=1e-11)
        it = cyc.iterates
        assert len(it) >= 3
        assert abs(it[2] - it[1]) < abs(it[1] - it[0])

    def test_reversal_symmetry_of_cycle(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        xmax = max(s.x for s in cyc.orbit.samples)
        xmin = min(s.x for s in cyc.orbit.samples)
        assert xmax == pytest.approx(-xmin, rel=1e-3)

    def test_quintic_cycle_regression(self, llibre_mereu):
        cyc = find_limit_cycle(llibre_mereu, 1.0, 1e-8)
        assert cyc.converged
        assert cyc.period == pytest.approx(1.951128, abs=2e-4)
        assert cyc.amplitude_x == pytest.approx(1.407440, abs=2e-4)

    def test_no_return_raises(self):
        sys_ = make_system([0, 1.0], [0, -1.0], 0.2)  # monotone runaway flow
        with pytest.raises(IntegrationError, match="no return"):
            find_limit_cycle(sys_, 1.0, 1e-8)

    def test_bad_guess_rejected(self, vdp):
        with pytest.raises(ValueError):
            find_limit_cycle(vdp, -1.0, 1e-8)

    def test_eps_below_floor_rejected(self, vdp):
        with pytest.raises(ValueError, match=f"eps below {dynamics.EPS_FLOOR}"):
            find_limit_cycle(vdp._replace(eps=1e-9), 1.0, 1e-8)


def sample_digest(traj) -> str:
    """SHA-256 over float.hex of every (t, x, y), then the step counts."""
    h = hashlib.sha256()
    for t, x, y in zip(traj.t, traj.x, traj.y):
        h.update(f"{t.hex()},{x.hex()},{y.hex()}\n".encode())
    h.update(f"{traj.accepted_steps},{traj.rejected_steps}".encode())
    return h.hexdigest()


# Degree-9 F with a cubic g, for the sample pin.
PIN_DEG9 = ([0, -1, 0, 0.2, 0, 0.1, 0, 0.05, 0, 0.01], [0, 1, 0, 0.3])
# F = x^3/3 + 0.1 x^2 - x is not odd: its cycle comes from the full-period map.
PIN_ASYM = ([0, -1, 0.1, 1 / 3], [0, 1])


def pin_system(name, eps):
    """A pinned system: PIN_DEG9, PIN_ASYM or a bundled config, at this eps."""
    pins = {"deg9": PIN_DEG9, "asym": PIN_ASYM}
    return make_system(*pins[name], eps) if name in pins else system_from_config(name, eps=eps)


# sample_digest of find_limit_cycle(sys, 1.0, 1e-9, integ_tol=1e-9).orbit.  The
# odd systems' orbits are half-period passes and their mirrors.  The asym
# digests predate the half-period map: an asymmetric system's orbit must not
# change with it.
CYCLE_PINS = {
    ("vdp", 0.1): "9beba51aa0ff944dfa447ff911cb1e9ae78de76783d6cfdb352737561653699e",
    ("vdp", 0.005): "0aa54798e7678bfc84bcb0c993b35519d2539d682d906a622854e8860883373c",
    ("llibre_mereu", 0.1): "36e2aa103554ef1f09c594b008dfca92b73d069e7d4cc3595783d92c262a22db",
    ("llibre_mereu", 0.005): "6bfc9b47b77205e2aa6cea24687e093258fa0446284a417b8d1630558aa53b68",
    ("deg9", 0.1): "23ab5b8d9dd771a3d772d2914464410e4fe8db006a4918460f2b552ad74aa4ec",
    ("deg9", 0.005): "65634263777aee4208f0c02b9c18ecbafd949314f1f546f87fd957784b3dec77",
    ("asym", 0.1): "fe27e1f2352245054f21f0809d0574485c28759d9daee8e07bbfd60c9079c651",
    ("asym", 0.005): "4b9a37523ea91d759dbe6b5403edfe737db952364e79d6b15c81289a6901af95",
}
# sample_digest of integrate(sys at eps 0.05, State(0.0, 0.1, 0.1), 20.0, 1e-9)
INTEGRATE_PINS = {
    "vdp": "23cfe952d28d47d5d6d4a3f91033ff675c8bd1e4cec3f349baea3757a9129e88",
    "llibre_mereu": "0aa3b9a0c582ba11dfbcfc844ff34b7dc3833549f52934c9941c3ce07f490450",
}


class TestSamplePin:
    """Every sample and step count, bit for bit, as the integrator produced them
    when trajectories became columns.  A change to the step, the controller
    or the crossing shows here first; one that is meant must restate these."""

    @pytest.mark.parametrize("name, eps", list(CYCLE_PINS))
    def test_cycle_samples(self, name, eps):
        cyc = find_limit_cycle(pin_system(name, eps), 1.0, 1e-9, integ_tol=1e-9)
        assert sample_digest(cyc.orbit) == CYCLE_PINS[name, eps]

    @pytest.mark.parametrize("name", list(INTEGRATE_PINS))
    def test_integrate_samples(self, name):
        traj = integrate(system_from_config(name, eps=0.05), State(0.0, 0.1, 0.1), 20.0, 1e-9)
        assert sample_digest(traj) == INTEGRATE_PINS[name]

    def test_integration_evaluates_no_polynomial(self, monkeypatch):
        # The march kernel computes every slope of a pass, its first included,
        # in generated Horner code: Polynomial.__call__ is off the path.
        cycles = {key: pin_system(*key) for key in CYCLE_PINS if key[1] == 0.1}
        runs = {name: system_from_config(name, eps=0.05) for name in INTEGRATE_PINS}

        def forbidden(self, x):
            raise AssertionError("Polynomial.__call__ on the integration path")

        monkeypatch.setattr(Polynomial, "__call__", forbidden)
        for key, sys_ in cycles.items():
            cyc = find_limit_cycle(sys_, 1.0, 1e-9, integ_tol=1e-9)
            assert sample_digest(cyc.orbit) == CYCLE_PINS[key]
        for name, sys_ in runs.items():
            traj = integrate(sys_, State(0.0, 0.1, 0.1), 20.0, 1e-9)
            assert sample_digest(traj) == INTEGRATE_PINS[name]


class TestTrajectoryColumns:
    def test_columns_are_read_only_float64(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 2.0, 1e-9)
        assert len(traj.t) == len(traj.x) == len(traj.y) == traj.accepted_steps + 1
        for col in (traj.t, traj.x, traj.y):
            assert col.format == "d" and col.readonly
            assert col.nbytes == 8 * len(col)
            with pytest.raises(TypeError):
                col[0] = 0.0

    def test_cycle_pickles_and_deep_copies(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-8)
        for twin in (pickle.loads(pickle.dumps(cyc)), copy.deepcopy(cyc)):
            assert twin == cyc
            assert twin.orbit.x.readonly and twin.orbit.x.obj is not cyc.orbit.x.obj

    def test_cycle_retains_under_40_bytes_a_sample(self):
        sys_ = system_from_config("vdp", eps=0.005)
        find_limit_cycle(sys_, 1.0, 1e-9)  # warm-up: the kernel compile is cached
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cyc = find_limit_cycle(sys_, 1.0, 1e-9)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = len(cyc.orbit.t)
        assert n > 1900
        assert retained <= 40 * n


def _counting_crossings(monkeypatch) -> list[int]:
    """Count the return-map passes: one _march call each."""
    calls = [0]
    orig = dynamics._march

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_march", counted)
    return calls


class TestSinglePassCycleSearch:
    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_orbit_is_the_converged_pass(self, name, monkeypatch):
        calls = _counting_crossings(monkeypatch)
        cyc = find_limit_cycle(system_from_config(name), 1.0, 1e-9, integ_tol=1e-9)
        assert cyc.converged
        assert calls[0] == cyc.iterations == len(cyc.iterates) - 1
        first, last = cyc.orbit.samples[0], cyc.orbit.samples[-1]
        assert (first.t, first.x, first.y) == (0.0, 0.0, cyc.iterates[-2])
        assert cyc.section_value == cyc.iterates[-1] == last.y
        assert cyc.period == last.t
        assert cyc.orbit.accepted_steps == len(cyc.orbit.samples) - 1
        assert cyc.amplitude_x == max(abs(s.x) for s in cyc.orbit.samples)

    def test_unconverged_orbit_is_the_last_pass(self, vdp, monkeypatch):
        calls = _counting_crossings(monkeypatch)
        monkeypatch.setattr(dynamics, "MAX_PASSES", 1)
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        assert not cyc.converged
        assert calls[0] == cyc.iterations == 1
        assert cyc.orbit.samples[0].y == cyc.iterates[-2] == 1.0
        assert cyc.section_value == cyc.iterates[-1]
        assert cyc.period == cyc.orbit.samples[-1].t


def full_map_cycle(sys_, y, tol):
    """(period, section value) of the full-period map's fixed point, iterated from y."""
    ys = [y]
    while True:
        traj = dynamics._march(sys_, State(0.0, 0.0, ys[-1]), tol)
        ys.append(traj.y[-1])
        if abs(ys[-1] - ys[-2]) <= tol:
            return traj.t[-1], ys[-1]


class TestHalfPeriodMap:
    """F and g odd: each pass is a half period, and the mirror supplies the rest."""

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "deg9"])
    @pytest.mark.parametrize("eps", [0.1, 0.005])
    def test_agrees_with_full_map(self, name, eps):
        sys_, tol = pin_system(name, eps), 1e-9
        cyc = find_limit_cycle(sys_, 1.0, tol, integ_tol=tol)
        period, section_value = full_map_cycle(sys_, 1.0, tol)
        assert cyc.converged
        assert abs(cyc.period - period) <= 10 * tol
        assert abs(cyc.section_value - section_value) <= 10 * tol

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu", "deg9"])
    def test_second_half_mirrors_the_first(self, name):
        cyc = find_limit_cycle(pin_system(name, 0.02), 1.0, 1e-9)
        orbit = cyc.orbit
        n = orbit.accepted_steps // 2
        assert orbit.accepted_steps == 2 * n and orbit.rejected_steps % 2 == 0
        assert len(orbit.t) == 2 * n + 1
        t_half = orbit.t[n]
        assert bits(orbit.t[n + 1:]) == bits(t_half + t for t in orbit.t[1:n + 1])
        assert bits(orbit.x[n + 1:]) == bits(-x for x in orbit.x[1:n + 1])
        assert bits(orbit.y[n + 1:]) == bits(-y for y in orbit.y[1:n + 1])
        assert cyc.period == 2 * t_half
        # The half ends on the downward crossing, near the start's mirror.
        assert orbit.x[n - 1] > 0.0 >= orbit.x[n]
        assert -orbit.y[n] == cyc.section_value == orbit.y[-1]

    @pytest.mark.parametrize("F, g, sign", [
        ([0, -1, 0, 1 / 3], [0, 1], -1),        # vdp: odd F and g
        (PIN_ASYM[0], PIN_ASYM[1], 1),           # an x^2 term in F
        ([0.01, -1, 0, 1 / 3], [0, 1], 1),      # F(0) != 0
        ([0, -1, 0, 1 / 3], [0, 1, 0.1], 1),    # an x^2 term in g
    ])
    def test_map_follows_the_parity(self, F, g, sign, monkeypatch):
        # A half pass starts at the mirrored iterate (0, -y_k), a full one at (0, y_k).
        seen = []
        orig = dynamics._march

        def recorded(*args, **kwargs):
            seen.append(math.copysign(1.0, args[1].y))
            return orig(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_march", recorded)
        find_limit_cycle(make_system(F, g, 0.1), 1.0, 1e-8)
        assert seen and set(seen) == {sign}


odd_coeffs = st.lists(st.one_of(st.just(0.0), st.floats(min_value=-10, max_value=10)),
                      min_size=1, max_size=5).map(
    lambda cs: [v for c in cs for v in (0.0, c)])  # degree <= 9, even terms zero


@given(odd_coeffs, odd_coeffs, st.floats(min_value=-10, max_value=10))
@settings(max_examples=300)
def test_generated_horner_of_odd_polynomials_is_bitwise_odd(F, g, x):
    # The half pass rests on this: round-to-nearest is sign-symmetric, so the
    # Horner code of an odd F and g, which the march kernel shares with the
    # evaluator, gives the negated value at -x bit for bit.
    values = make_system(F, g, 0.1).values
    at_x, at_minus_x = values(x), values(-x)
    for i in (0, 3):  # F and g
        if at_x[i] != 0.0:
            assert at_minus_x[i].hex() == (-at_x[i]).hex()


def bisection_crossing(sys_, prev, span):
    """The upward crossing as bisection in time located it before dense output.

    Each probe time re-propagates one fixed DP step from prev; the side
    where x >= 0 is kept, to 1e-12 in time.
    """
    rhs = horner_rhs(sys_)

    def at(tau):
        return reference_dp_step(rhs, prev.x, prev.y, tau, *rhs(prev.x, prev.y))[:2]

    assert at(span)[0] >= 0.0
    lo, hi = 0.0, span
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if at(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    x, y = at(hi)
    return State(prev.t + hi, x, y)


def _recording_passes(monkeypatch) -> list:
    """Record every _march call's trajectory and the march-kernel calls it made."""
    passes, calls = [], [0]
    orig_march = dynamics._march

    def counting_kernel(march):
        def counted(*args):
            calls[0] += 1
            return march(*args)

        return counted

    def recorded(*args, **kwargs):
        before = calls[0]
        traj = orig_march(*args, **kwargs)
        passes.append((traj, calls[0] - before))
        return traj

    wrap_kernels(monkeypatch, counting_kernel)
    monkeypatch.setattr(dynamics, "_march", recorded)
    return passes


# The cycle searches of the benchmark's certify operation: the report's
# (tol 1e-9) and the order study's (tol 1e-10), for each system and eps.
CERTIFY_CASES = [(name, eps, tol) for name in ("vdp", "llibre_mereu")
                 for eps in (0.1, 0.05, 0.02, 0.01, 0.005) for tol in (1e-9, 1e-10)]


class TestDenseCrossing:
    @pytest.mark.parametrize("name, eps, tol",
                             CERTIFY_CASES + [("asym", 0.1, 1e-9), ("asym", 0.005, 1e-9)])
    def test_agrees_with_bisection_crossing(self, name, eps, tol, monkeypatch):
        passes = _recording_passes(monkeypatch)
        sys_ = pin_system(name, eps)
        cyc = find_limit_cycle(sys_, 1.0, tol, integ_tol=tol)
        assert cyc.converged and len(passes) == cyc.iterations
        # Every pass ends on an upward crossing: the odd systems' half passes
        # run from the mirrored start, asym's full passes from the iterate.
        for traj, _ in passes:
            prev, cross = traj.samples[-2], traj.samples[-1]
            old = bisection_crossing(sys_, prev, 2.0 * (cross.t - prev.t))
            assert abs(cross.t - old.t) <= 1e-9
            assert abs(cross.y - old.y) <= 1e-9
            assert prev.x < 0.0 and abs(cross.x) <= 1e-8

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_kernel_calls_per_pass(self, name, monkeypatch):
        # A pass is one march-kernel call: its steps and its crossing run in
        # that one frame.
        passes = _recording_passes(monkeypatch)
        sys_ = system_from_config(name, eps=0.02)
        cyc = find_limit_cycle(sys_, 1.0, 1e-9, integ_tol=1e-9)
        assert len(passes) == cyc.iterations >= 2
        for traj, kernel_calls in passes:
            assert kernel_calls == 1
            assert len(traj.t) == traj.accepted_steps + 1
        passes.clear()
        traj = integrate(sys_, State(0.0, 0.1, 0.1), 3.0, 1e-9)
        assert passes == [(traj, 1)]


class TestIndependentIntegrator:
    """Period and section value against scipy's DOP853 at rtol 1e-12."""

    @staticmethod
    def _scipy_return(sys_, y0):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        F, g, eps = sys_.F, sys_.g, sys_.eps

        def rhs(t, z):
            return [(z[1] - F(z[0])) / eps, -g(z[0])]

        def crossing(direction):
            def event(t, z):
                return z[0]

            event.terminal = True
            event.direction = direction
            return event

        # Leave through x = 0 downward, then come back upward: an upward
        # event at the start, where x = 0, would otherwise fire at once.
        t, z = 0.0, [0.0, y0]
        for direction in (-1, 1):
            sol = solve_ivp(rhs, (t, t + 10.0), z, method="DOP853", rtol=1e-12,
                            atol=1e-12, events=crossing(direction))
            assert sol.status == 1, sol.message
            t, z = float(sol.t_events[0][0]), [0.0, float(sol.y_events[0][0][1])]
        return t, z[1]

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_period_and_section_value(self, name):
        pytest.importorskip("scipy")
        sys_ = system_from_config(name, eps=0.05)
        cyc = find_limit_cycle(sys_, 1.0, 1e-10)
        assert cyc.converged
        # The return map contracts by orders of magnitude per period, so
        # one scipy pass from the program's fixed point lands on scipy's.
        period, y_return = self._scipy_return(sys_, cyc.section_value)
        assert abs(period - cyc.period) <= 1e-8
        assert abs(y_return - cyc.section_value) <= 1e-8


class TestIntegrationErrorState:
    """The stepping loop's failures carry t, x, y, h and the step counts."""

    def test_stall(self):
        stiff = make_system([0, 1e14], [0, 1], 0.05)  # x relaxes at rate 2e15
        with pytest.raises(IntegrationError, match="stalled") as info:
            integrate(stiff, State(0.0, 1.0, 1.0), 1.0, 1e-9)
        e = info.value
        assert (e.t, e.x, e.y) == (0.0, 1.0, 1.0)
        assert 0.0 < e.h < 1e-14
        assert e.accepted == 0 and e.rejected >= 10

    def test_blow_up(self):
        runaway = make_system([0, 0, 0, -1.0], [0, 1], 0.05)  # F = -x^3
        with pytest.raises(IntegrationError, match="blow-up") as info:
            integrate(runaway, State(0.0, 1e80, 0.0), 1.0, 1e-6)
        e = info.value
        assert (e.t, e.x, e.y) == (0.0, 1e80, 0.0)
        assert 0.0 < e.h < 1e-14
        assert e.accepted == 0 and e.rejected >= 10

    def test_finite_time_blow_up_is_not_a_stall(self):
        # x runs from 2 to ~7.5e5 by t ~ 0.00625; the step size then
        # underflows with every attempt finite.
        runaway = make_system([0, 0, 0, -1.0], [0, 1], 0.05)
        with pytest.raises(IntegrationError, match="blow-up") as info:
            integrate(runaway, State(0.0, 2.0, 0.0), 10.0, 1e-6)
        e = info.value
        assert abs(e.x) > 1e4 * 2.0
        assert 0.0 < e.t < 0.01
        assert 0.0 < e.h < 1e-14
        assert e.accepted > 0 and e.rejected > 0

    def test_finite_time_blow_up_from_a_large_state(self):
        # From x0 = 1e5, F = -x^3 runs away in about eps/(2 x0^2) = 2.5e-12;
        # the state grows only about fourfold before the step underflows.
        runaway = make_system([0, 0, 0, -1.0], [0, 1], 0.05)
        with pytest.raises(IntegrationError, match="blow-up") as info:
            integrate(runaway, State(0.0, 1e5, 0.1), 1.0, 1e-9)
        e = info.value
        assert 1e5 < e.x < 1e4 * 1e5
        assert 0.0 < e.t < 1e-11
        assert 0.0 < e.h < 1e-14
        assert e.accepted > 0

    def test_step_budget_bounds_a_pass(self, monkeypatch):
        # vdp from y = 1e9 climbs to x ~ 1442 and stiffens: the horizon in t
        # is never reached, the step budget is.
        monkeypatch.setattr(dynamics, "_PASS_STEP_BUDGET", 3000)
        with pytest.raises(IntegrationError, match="no return to the section within 3000 steps") as info:
            find_limit_cycle(system_from_config("vdp"), 1e9, 1e-9)
        e = info.value
        assert e.accepted + e.rejected == 3001
        assert 0.0 < e.t < 10.0 * (1.0 + 1.0 / 0.05)
        assert e.x > 1000.0 and e.y > 1e8
        assert 0.0 < e.h < 1e-6

    def test_step_budget_bounds_an_integration(self, monkeypatch):
        # The same climb from y0 = 1e9 never reaches t_end = 100: the budget
        # is the base plus the 100 / (0.2 * 0.05) = 10,000 steps the cap needs.
        monkeypatch.setattr(dynamics, "_PASS_STEP_BUDGET", 3000)
        with pytest.raises(IntegrationError, match="no arrival at t_end within 13000 steps") as info:
            integrate(system_from_config("vdp"), State(0.0, 0.1, 1e9), 100.0, 1e-9)
        e = info.value
        assert e.accepted + e.rejected == 13001
        assert 0.0 < e.t < 1.0
        assert e.x > 1000.0 and e.y > 1e8
        assert 0.0 < e.h < 1e-6

    def test_step_budget_admits_every_capped_run(self, monkeypatch):
        # With no base budget left, a run the cap paces at exactly h_max
        # (F = g = 0, so y stays put and x moves linearly) still ends.
        monkeypatch.setattr(dynamics, "_PASS_STEP_BUDGET", 0)
        traj = integrate(make_system([0.0], [0.0], 0.05), State(0.0, 0.0, 1.0), 100.0, 1e-9)
        assert traj.t[-1] == 100.0 and traj.accepted_steps >= 10_000

    @pytest.mark.parametrize("g, x0", [([0, 1.0], 1000.0), ([0, 0, 0, 0, 0, 1.0], 1e5)])
    def test_error_norm_overflow_is_a_blow_up(self, g, x0):
        # F = -x^3 from a large x: after a few rejected attempts, a step's
        # stages are finite but the square of its scaled error estimate
        # overflows in the error norm.
        runaway = make_system([0, 0, 0, -1.0], g, 0.05)
        with pytest.raises(IntegrationError, match="blow-up") as info:
            integrate(runaway, State(0.0, x0, 0.1), 1.0, 1e-9)
        e = info.value
        assert (e.t, e.x, e.y) == (0.0, x0, 0.1)
        assert 0.0 < e.h < 0.2 * 0.05
        assert e.accepted == 0 and e.rejected >= 1

    def test_no_return(self):
        sys_ = make_system([0, 1.0], [0, -1.0], 0.2)  # monotone runaway flow
        with pytest.raises(IntegrationError, match="no return") as info:
            find_limit_cycle(sys_, 1.0, 1e-8)
        e = info.value
        assert e.t == 10.0 * (1.0 + 1.0 / 0.2)  # the state at the horizon
        assert e.x > 1e20 and e.y > 1e20
        assert 0.0 < e.h <= 0.2 * 0.2
        assert e.accepted > 1000 and e.rejected >= 0

    def test_other_failures_carry_no_state(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 0.05, 1e-9)
        with pytest.raises(IntegrationError, match="slow vicinity") as info:
            extract_vicinity(traj, vdp, 1.0)
        e = info.value
        assert (e.t, e.x, e.y, e.h, e.accepted, e.rejected) == (None,) * 6


class TestExtractVicinity:
    def test_segment_spans_expected_window(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        seg = extract_vicinity(cyc.orbit, vdp, 1.0)
        assert seg.band_width == pytest.approx(vdp.eps)
        assert seg.x_range[0] <= 1.9
        assert seg.x_range[1] >= 1.99

    def test_segment_signs(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        seg = extract_vicinity(cyc.orbit, vdp, 1.0)
        for s in seg.samples:
            j = jet(vdp, s)
            assert j.xdot < 0.0
            assert j.ydot < 0.0

    def test_segment_respects_band_and_floor(self, vdp):
        from flowcurv import slow_branches

        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        seg = extract_vicinity(cyc.orbit, vdp, 1.0)
        for s in seg.samples:
            assert s.x >= math.sqrt(3) + 0.1 - 1e-12
            br = slow_branches(vdp, s.x)
            assert abs(s.y - br.y_slow) <= seg.band_width

    def test_short_trajectory_raises(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 0.05, 1e-9)
        with pytest.raises(IntegrationError, match="slow vicinity"):
            extract_vicinity(traj, vdp, 1.0)

    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_default_floor_is_positive_zero_plus_margin(self, name, monkeypatch):
        sys_ = system_from_config(name)
        floor = check_assumptions(sys_).positive_zero_a + 0.1
        cyc = find_limit_cycle(sys_, 1.0, 1e-9)
        explicit = extract_vicinity(cyc.orbit, sys_, 1.0, x_min=floor)

        def forbidden(*args, **kwargs):
            raise AssertionError("extract_vicinity must not run check_assumptions")

        monkeypatch.setattr("flowcurv.system.check_assumptions", forbidden)
        monkeypatch.setattr(dynamics, "check_assumptions", forbidden, raising=False)
        assert extract_vicinity(cyc.orbit, sys_, 1.0) == explicit
        assert min(s.x for s in explicit.samples) >= floor

    def test_default_floor_finds_a_zero_beyond_ten(self):
        # F's positive zero is 8*sqrt(3) = 13.86: the floor comes from the
        # orbit's own x-range, not from a fixed window
        sys_ = make_system([0, -1, 0, 1 / 192], [0, 1 / 64], 0.05)
        cyc = find_limit_cycle(sys_, 1.0, 1e-9, integ_tol=1e-9)
        report = minorsky_report(sys_, cyc).to_json_dict()
        fails = {cid: c["fail"] for cid, c in report["checks"].items() if c["fail"]}
        assert report["n_points"] == 2231 and fails == {"PHIDOT_POS": 29}
        floor = check_assumptions(sys_, 20.0).positive_zero_a + 0.1
        assert minorsky_report(sys_, cyc, x_min=floor).to_json_dict() == report

    def test_x_min_beyond_the_orbit_is_an_input_error(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        top = max(cyc.orbit.x)
        with pytest.raises(ValueError, match=r"x_min=2\.5 .* largest x is 2\.0223"):
            extract_vicinity(cyc.orbit, vdp, 1.0, x_min=2.5)
        # at the orbit's largest x itself, the band is searched as usual
        with pytest.raises(IntegrationError, match="slow vicinity"):
            extract_vicinity(cyc.orbit, vdp, 1.0, x_min=top)

    def test_band_too_narrow_stays_a_numerical_failure(self, vdp):
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        with pytest.raises(IntegrationError, match="slow vicinity"):
            extract_vicinity(cyc.orbit, vdp, 1e-300)

    def test_band_too_narrow_names_the_band(self, vdp):
        # 74 samples of the converged cycle are in the descending window;
        # the nearest lies 6.0e-4 from the slow branch.
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        with pytest.raises(IntegrationError, match="slow vicinity") as info:
            extract_vicinity(cyc.orbit, vdp, 1e-9)
        msg = str(info.value)
        assert "band*eps = 5e-11" in msg and "nearest lies 0.0006" in msg
        assert "integrate longer" not in msg
        assert info.value.t is None
        # a run that never reaches the descending window is told to integrate longer
        short = integrate(vdp, State(0.0, 0.1, 0.1), 0.05, 1e-9)
        with pytest.raises(IntegrationError, match=r"slow vicinity \(integrate longer\)"):
            extract_vicinity(short, vdp, 1.0)

    @pytest.mark.parametrize("x_min", [math.nan, math.inf])
    def test_x_min_not_below_the_orbit_is_an_input_error(self, vdp, x_min):
        # NaN fails every comparison: it must not drop the window floor
        cyc = find_limit_cycle(vdp, 1.0, 1e-9)
        with pytest.raises(ValueError, match=f"x_min={x_min} "):
            extract_vicinity(cyc.orbit, vdp, 1.0, x_min=x_min)
        # -inf is a floor below every sample, as the caller asks
        wide = extract_vicinity(cyc.orbit, vdp, 1.0, x_min=-math.inf)
        assert len(wide.samples) > len(extract_vicinity(cyc.orbit, vdp, 1.0).samples)

    def test_fold_sample_keeps_the_run(self, vdp):
        # Descending samples 0.01 below F around the fold at x = 1, where
        # there is no slow branch: each is measured from the critical
        # manifold, the fold sample (f(1.0) = 0) too, so the run is whole.
        xs = [1.2, 1.1, 1.0, 0.9, 0.8]
        traj = Trajectory._of_arrays(array("d", range(5)), array("d", xs),
                                     array("d", [vdp.F(x) - 0.01 for x in xs]), 4, 0, 1e-9)
        assert vdp.f(1.0) == 0.0
        seg = extract_vicinity(traj, vdp, 1.0, x_min=0.5)
        assert [s.x for s in seg.samples] == xs

    def test_no_single_positive_zero_raises(self):
        no_zero = make_system([0.0, 1.0], [0.0, 1.0], 0.05)  # F = x
        traj = integrate(no_zero, State(0.0, 0.1, 0.1), 0.5, 1e-9)
        with pytest.raises(IntegrationError, match="positive zero of F"):
            extract_vicinity(traj, no_zero, 1.0)

    def test_zero_of_F_beyond_the_orbit_is_decided_exactly(self):
        # F = (x-1)^7 - 2^-40, expanded, has its one zero at 1.019047088346945,
        # 2.2e-11 beyond the orbit's largest x.  F < 0 up to there, but its
        # float Horner value there is rounding noise of the wrong sign.
        c = [math.comb(7, k) * (-1) ** (7 - k) for k in range(8)]
        c[0] -= 2.0 ** -40
        sys_ = make_system(c, [0, 1], 0.05)
        top = 1.019047088324945
        assert sys_.F(top) > 0.0
        traj = Trajectory._of_arrays(array("d", [0.0, 1.0]), array("d", [0.0, top]),
                                     array("d", [0.0, 0.0]), 1, 0, 1e-9)
        with pytest.raises(IntegrationError, match=r"slow vicinity \(integrate longer\)"):
            extract_vicinity(traj, sys_, 1.0)


class TestTrajectoryCsv:
    def test_peak_memory_below_three_times_the_text(self, vdp):
        # the rows' strings and the joined text, and no third copy
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 20.0, 1e-9)
        text, peak = traced_peak(format_trajectory_csv, vdp, traj)
        assert len(text) > 450_000 and text.endswith("\n")
        assert peak < 3 * len(text)

    def test_header_and_columns(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 0.2, 1e-9)
        text = format_trajectory_csv(vdp, traj)
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_CSV_HEADER
        row = lines[1].split(",")
        assert len(row) == 8
        assert float(row[0]) == traj.samples[0].t
