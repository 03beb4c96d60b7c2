import math

import pytest

from flowcurv import (
    IntegrationError,
    check_assumptions,
    State,
    extract_vicinity,
    find_limit_cycle,
    integrate,
    make_system,
    total_energy,
    energy_rate,
    vector_field,
)
from flowcurv import dynamics
from flowcurv.dynamics import (
    TRAJECTORY_CSV_HEADER,
    _make_rhs,
    _propagate,
    format_trajectory_csv,
)

from conftest import system_from_config


def fd_energy_rate(sys_, s, h=1e-4, n_sub=20):
    """Fourth-order centered finite difference of E along the flow."""
    rhs = _make_rhs(sys_)
    rhs_back = lambda x, y: tuple(-v for v in rhs(x, y))

    def e_at(signed_h):
        f = rhs if signed_h > 0 else rhs_back
        x, y = _propagate(f, s.x, s.y, abs(signed_h), n_sub=n_sub)
        return total_energy(sys_, State(0.0, x, y))

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
            closed = energy_rate(vdp, s)
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


class TestIntegratorOrder:
    def test_fixed_step_order_at_least_four(self, vdp):
        rhs = _make_rhs(vdp)
        x0, y0 = 0.1, 0.1
        span = 0.5

        def run(n):
            return _propagate(rhs, x0, y0, span, n_sub=n)

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

    def test_zero_max_iter_rejected(self, vdp):
        with pytest.raises(ValueError, match="max_iter"):
            find_limit_cycle(vdp, 1.0, 1e-8, max_iter=0)


def _counting_crossings(monkeypatch) -> list[int]:
    """Count the return-map passes: one _next_upward_crossing call each."""
    calls = [0]
    orig = dynamics._next_upward_crossing

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_next_upward_crossing", counted)
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
        cyc = find_limit_cycle(vdp, 1.0, 1e-9, max_iter=1)
        assert not cyc.converged
        assert calls[0] == cyc.iterations == 1
        assert cyc.orbit.samples[0].y == cyc.iterates[-2] == 1.0
        assert cyc.section_value == cyc.iterates[-1]
        assert cyc.period == cyc.orbit.samples[-1].t


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
            xd, yd = vector_field(vdp, s)
            assert xd < 0.0
            assert yd < 0.0

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

    def test_no_single_positive_zero_raises(self):
        no_zero = make_system([0.0, 1.0], [0.0, 1.0], 0.05)  # F = x
        traj = integrate(no_zero, State(0.0, 0.1, 0.1), 0.5, 1e-9)
        with pytest.raises(IntegrationError, match="positive zero of F"):
            extract_vicinity(traj, no_zero, 1.0)


class TestTrajectoryCsv:
    def test_header_and_columns(self, vdp):
        traj = integrate(vdp, State(0.0, 0.1, 0.1), 0.2, 1e-9)
        text = format_trajectory_csv(vdp, traj)
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_CSV_HEADER
        row = lines[1].split(",")
        assert len(row) == 8
        assert float(row[0]) == traj.samples[0].t
