import json
import math
import struct

import pytest

from flowcurv import (IntegrationError, LimitCycle, State, convergence_study, extract_vicinity,
                      find_limit_cycle, jet, make_system)
from flowcurv import dynamics, verify
from flowcurv.verify import (CHECK_IDS, N_PROBE, CheckResult, _descent_ys, _slope,
                             _step_interpolant, evaluate_checks, minorsky_report,
                             sample_margins)

from conftest import halton, system_from_config


@pytest.fixture(scope="module")
def vdp_cycle(vdp):
    return find_limit_cycle(vdp, 1.0, 1e-9, integ_tol=1e-9)


class TestMinorskyReport:
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    def test_eight_checks_clean_in_default_band(self, name, eps, both_systems):
        sys_ = make_system(both_systems[0].F if name == "vdp" else both_systems[1].F,
                           both_systems[0].g if name == "vdp" else both_systems[1].g,
                           eps)
        cycle = find_limit_cycle(sys_, 1.0, 1e-9, integ_tol=1e-9)
        rep = minorsky_report(sys_, cycle, 1.0, system_name=name)
        for cid in CHECK_IDS:
            if cid == "PHIDOT_POS":
                continue
            assert rep.checks[cid].fail_count == 0, cid
            assert rep.checks[cid].min_margin > 0.0 or cid == "PHI_NONNEG"
        assert rep.checks["PHI_NONNEG"].min_margin >= 1e-10
        assert rep.checks["EQ56_BOUND"].fail_count == 0
        assert rep.n_points > 20

    def test_curvature_rate_fails_only_in_settling_layer(self, vdp, vdp_cycle):
        # The band unavoidably contains the post-jump settling layer, where
        # the curvature rate is still negative; those are genuine sign
        # violations of the pointwise check, confined to the top of the band.
        from flowcurv import extract_vicinity

        rep = minorsky_report(vdp, vdp_cycle, 1.0, system_name="vdp")
        assert rep.checks["PHIDOT_POS"].fail_count > 0
        assert not rep.overall
        seg = extract_vicinity(vdp_cycle.orbit, vdp, 1.0)
        failing_x = [
            s.x for s in seg.samples if sample_margins(vdp, s)["PHIDOT_POS"] <= 0
        ]
        assert min(failing_x) > 1.9
        passing_x = [
            s.x for s in seg.samples if sample_margins(vdp, s)["PHIDOT_POS"] > 0
        ]
        assert max(passing_x) < min(failing_x)

    def test_widened_band_records_energy_absorption(self, vdp, vdp_cycle):
        rep = minorsky_report(vdp, vdp_cycle, 60.0, system_name="vdp", x_min=-0.5)
        assert rep.checks["DEDT_NEG"].fail_count > 0
        assert not rep.overall

    def test_report_is_deterministic(self, vdp, vdp_cycle):
        fresh = find_limit_cycle(vdp, 1.0, 1e-9, integ_tol=1e-9)
        a = minorsky_report(vdp, vdp_cycle, 1.0, system_name="vdp").to_json()
        b = minorsky_report(vdp, fresh, 1.0, system_name="vdp").to_json()
        assert a == b

    def test_json_schema_and_field_order(self, vdp, vdp_cycle):
        rep = minorsky_report(vdp, vdp_cycle, 1.0, system_name="vdp")
        doc = json.loads(rep.to_json())
        assert list(doc.keys()) == ["system", "eps", "band", "n_points", "checks", "overall"]
        assert list(doc["checks"].keys()) == list(CHECK_IDS)
        for entry in doc["checks"].values():
            assert list(entry.keys()) == ["pass", "fail", "min_margin"]
        assert doc["system"] == "vdp"
        assert doc["eps"] == vdp.eps

    def test_requires_converged_cycle(self, vdp, vdp_cycle):
        broken = LimitCycle(
            period=vdp_cycle.period,
            section_value=vdp_cycle.section_value,
            orbit=vdp_cycle.orbit,
            amplitude_x=vdp_cycle.amplitude_x,
            converged=False,
            iterations=vdp_cycle.iterations,
            iterates=vdp_cycle.iterates,
        )
        with pytest.raises(ValueError, match="converged"):
            minorsky_report(vdp, broken, 1.0)


class TestEvaluateChecks:
    def test_zero_and_nan_margins(self, vdp):
        # At the origin every margin but LIE_RESIDUAL's (1e-8) is a signed
        # zero, and only PHI_NONNEG passes at zero; at (nan, nan) every
        # margin is NaN, a failure that never becomes the minimum.
        zero, nan = State(0.0, 0.0, 0.0), State(0.0, math.nan, math.nan)
        assert all(m == 0.0 for cid, m in sample_margins(vdp, zero).items()
                   if cid != "LIE_RESIDUAL")
        assert all(math.isnan(m) for m in sample_margins(vdp, nan).values())
        results = evaluate_checks(vdp, (nan, zero))
        assert list(results) == list(CHECK_IDS)
        for cid, r in results.items():
            passes_at_zero = cid in ("PHI_NONNEG", "LIE_RESIDUAL")
            assert r[:2] == ((1, 1) if passes_at_zero else (0, 2)), cid
            assert r.min_margin == (verify.LIE_RESIDUAL_TOL if cid == "LIE_RESIDUAL" else 0.0)
        assert evaluate_checks(vdp, (nan,))["PHI_NONNEG"] == CheckResult(0, 1, math.inf)

    def test_no_samples(self, vdp):
        results = evaluate_checks(vdp, ())
        assert list(results) == list(CHECK_IDS)
        assert set(results.values()) == {CheckResult(0, 0, math.inf)}

    def test_counts_and_minimum_follow_the_sample_margins(self, vdp, vdp_cycle):
        seg = extract_vicinity(vdp_cycle.orbit, vdp, 1.0)
        margins = [sample_margins(vdp, s) for s in seg.samples]
        for cid, r in evaluate_checks(vdp, seg.samples).items():
            ms = [m[cid] for m in margins]
            passed = sum(m >= 0.0 if cid == "PHI_NONNEG" else m > 0.0 for m in ms)
            assert r == (passed, len(ms) - passed, min(ms)), cid


def reference_checks(sys_, samples):
    """The nine checks by a plain loop over sample_margins, with min's NaN rule."""
    margins = [sample_margins(sys_, s) for s in samples]
    out = {}
    for cid in CHECK_IDS:
        ms = [m[cid] for m in margins]
        passed = sum(m >= 0.0 if cid == "PHI_NONNEG" else m > 0.0 for m in ms)
        out[cid] = (passed, len(ms) - passed, min([math.inf, *ms]))
    return out


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestCheckLoopAgainstSampleMargins:
    """The compiled loop against a plain loop over sample_margins, bit for bit."""

    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.005])
    @pytest.mark.parametrize("name", ["vdp", "llibre_mereu"])
    @pytest.mark.parametrize("band, x_min", [(1.0, None), (60.0, -0.5)])
    def test_cycle_vicinities(self, name, eps, band, x_min):
        sys_ = system_from_config(name, eps=eps)
        cycle = find_limit_cycle(sys_, 1.0, 1e-9, integ_tol=1e-9)
        samples = extract_vicinity(cycle.orbit, sys_, band, x_min=x_min).samples
        got = evaluate_checks(sys_, samples)
        for cid, want in reference_checks(sys_, samples).items():
            assert got[cid][:2] == want[:2], cid
            assert bits(got[cid].min_margin) == bits(want[2]), cid

    def test_special_samples(self, both_systems):
        # signed zeros, NaN, inf and subnormal coordinates, alone and mixed
        # with ordinary samples, and no samples at all
        odd = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e300, 1.5, -2.0]
        states = [State(0.0, x, y) for x in odd for y in odd]
        for sys_ in both_systems:
            for samples in ((), tuple(states), tuple(states[::-1]), tuple(states[40:45])):
                got = evaluate_checks(sys_, samples)
                for cid, want in reference_checks(sys_, samples).items():
                    assert got[cid][:2] == want[:2], cid
                    assert bits(got[cid].min_margin) == bits(want[2]), cid

    def test_margins_are_the_table_over_the_jet(self, vdp):
        # sample_margins reads the one table over the jet's fields, of
        # which relation_rate and lie_residual are two
        s = State(0.0, 1.9, -0.4)
        j = jet(vdp, s)
        m = sample_margins(vdp, s)
        assert bits(m["EQ56_BOUND"]) == bits(-j.relation_rate)
        assert bits(m["LIE_RESIDUAL"]) == bits(
            verify.LIE_RESIDUAL_TOL - abs(j.lie_residual) / max(1.0, abs(j.phi_dot)))
        assert [bits(m[cid]) for cid in ("XDOT_NEG", "PHI_NONNEG", "PHIDOT_POS", "DEDT_NEG")] == [
            bits(-j.xdot), bits(j.phi), bits(j.phi_dot), bits(-j.dEdt)]


def rescan_descent_y_at(sys_, traj, x_probe):
    """y on the slow descent at x_probe by a scan from the orbit's start per probe."""
    samples = traj.samples
    for s0, s1 in zip(samples[:-1], samples[1:]):
        if s1.x < s0.x and s1.x <= x_probe <= s0.x:
            return _step_interpolant(sys_, *s0, *s1)(x_probe)
    return None


class TestDescentInterpolation:
    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.005])
    @pytest.mark.parametrize("name, lo, hi", [("vdp", 1.6, 1.9), ("llibre_mereu", 1.3, 1.38)])
    def test_one_walk_equals_per_probe_scans(self, name, lo, hi, eps):
        sys_ = system_from_config(name, eps=eps)
        cycle = find_limit_cycle(sys_, 1.0, 1e-10)
        probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
        got = _descent_ys(sys_, cycle.orbit, probes)
        want = [rescan_descent_y_at(sys_, cycle.orbit, px) for px in probes]
        assert None not in got
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_first_descending_step_wins_and_misses_stay_none(self, vdp):
        from array import array

        from flowcurv.dynamics import Trajectory

        # Two descents over x in [0, 2]; a probe on a sample takes the
        # earlier step's endpoint; 3.0 lies on no descending step.  Steps of
        # 1e-9 keep the field's slopes from moving the cubic off the chord
        # by more than 1e-6.
        xs = array("d", [2.0, 1.0, 0.0, 2.0, 0.0])
        ys = array("d", [0.0, 1.0, 2.0, 5.0, 9.0])
        ts = array("d", [i * 1e-9 for i in range(len(xs))])
        traj = Trajectory._of_arrays(ts, xs, ys, 4, 0, 1e-9)
        probes = [0.5, 1.0, 1.5, 3.0]
        got = _descent_ys(vdp, traj, probes)
        assert got == [rescan_descent_y_at(vdp, traj, px) for px in probes]
        assert got[1] == 1.0 and got[3] is None
        assert got[:3] == pytest.approx([1.5, 1.0, 0.5], abs=1e-6)

    @pytest.mark.parametrize("name, x_probe", [("vdp", 1.75), ("llibre_mereu", 1.34)])
    def test_step_interpolant_matches_scipy_hermite_spline(self, name, x_probe):
        # scipy's CubicHermiteSpline through the step's ends and field
        # slopes, solved for x = x_probe by Brent's method
        interpolate = pytest.importorskip("scipy.interpolate")
        optimize = pytest.importorskip("scipy.optimize")
        sys_ = system_from_config(name, eps=0.1)
        orbit = find_limit_cycle(sys_, 1.0, 1e-10).orbit
        s = orbit.samples
        k = next(i for i in range(len(s) - 1) if s[i + 1].x <= x_probe <= s[i].x
                 and s[i + 1].x < s[i].x)
        ends = s[k], s[k + 1]
        slopes = [[(e.y - sys_.F(e.x)) / sys_.eps, -sys_.g(e.x)] for e in ends]
        spline = interpolate.CubicHermiteSpline([e.t for e in ends],
                                                [[e.x, e.y] for e in ends], slopes)
        t_probe = optimize.brentq(lambda t: spline(t)[0] - x_probe, ends[0].t, ends[1].t,
                                  xtol=1e-15, rtol=1e-15)
        got = _step_interpolant(sys_, *ends[0], *ends[1])(x_probe)
        assert ends[1].t - ends[0].t > 1e-3  # a step long enough for the cubic to count
        assert got == pytest.approx(spline(t_probe)[1], rel=0, abs=1e-13)


class TestConvergenceStudy:
    def test_orders_on_probe_window(self, vdp):
        study = convergence_study(vdp, [0.1, 0.05, 0.025], (1.6, 1.9))
        assert study.fitted_order >= 1.5
        assert study.fitted_order_critical == pytest.approx(1.0, abs=0.3)
        assert all(b < a for a, b in zip(study.distances[:-1], study.distances[1:]))
        assert all(
            b < a for a, b in zip(study.distances_critical[:-1], study.distances_critical[1:])
        )

    def test_single_eps_rejected(self, vdp):
        with pytest.raises(ValueError, match="eps_list needs >= 2 values"):
            convergence_study(vdp, [0.1], (1.6, 1.9))

    def test_non_decreasing_list_rejected(self, vdp):
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(vdp, [0.05, 0.1], (1.6, 1.9))

    def test_unconverged_cycle_raises(self, vdp, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_PASSES", 1)
        with pytest.raises(IntegrationError, match="limit cycle did not converge at eps=0.1"):
            convergence_study(vdp, [0.1, 0.05], (1.6, 1.9))

    def test_tiny_eps_rejected(self, vdp):
        with pytest.raises(ValueError, match="0.0001"):
            convergence_study(vdp, [0.1, 5e-5], (1.6, 1.9))

    def test_second_order_down_to_small_eps(self, vdp):
        # below the former 0.005 floor: distance / eps^2 settles near 1.38
        study = convergence_study(vdp, [0.01, 0.005, 0.002, 0.001], (1.6, 1.9))
        assert 1.8 <= study.fitted_order <= 2.2
        assert study.fitted_order_critical == pytest.approx(1.0, abs=0.1)
        assert all(1.3 <= d / e**2 <= 1.45 for d, e in zip(study.distances, study.eps_values))

    @pytest.mark.parametrize("name, window", [("vdp", (1.6, 1.9)), ("llibre_mereu", (1.3, 1.38))])
    def test_distance_approaches_the_series_limit(self, name, window):
        # branch - SIM = -eps**2 g**2 f'/f**4 + O(eps**3), so the distance over
        # eps**2 rises to max |g**2 f'/f**4| over the probes; a chord through
        # each step added an O(eps**2) bias and overshot it on llibre_mereu
        base = system_from_config(name)
        lo, hi = window
        probes = [lo + (hi - lo) * i / (N_PROBE - 1) for i in range(N_PROBE)]
        limit = max(abs(base.g(x) ** 2 * base.fp(x) / base.f(x) ** 4) for x in probes)
        study = convergence_study(base, [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001], window)
        ratios = [d / e**2 for d, e in zip(study.distances, study.eps_values)]
        assert all(b > a for a, b in zip(ratios[:-1], ratios[1:]))
        assert ratios[-1] == pytest.approx(limit, rel=0.01)

    def test_order_fit_matches_numpy_polyfit(self):
        np = pytest.importorskip("numpy")
        for n in (2, 3, 5, 9):
            xs = [math.log(0.1 / 2**k) for k in range(n)]
            ys = [2.0 * x - 1.0 + 0.3 * (halton(k + 1, 3) - 0.5) for k, x in enumerate(xs)]
            assert _slope(xs, ys) == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-14, abs=0)
