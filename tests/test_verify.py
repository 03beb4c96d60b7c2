import json
import math

import pytest

from flowcurv import LimitCycle, convergence_study, find_limit_cycle, make_system
from flowcurv.verify import CHECK_IDS, _slope, minorsky_report, sample_margins

from conftest import halton


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
        assert rep.checks["PHI_NONNEG"].min_margin > 0.0
        assert rep.checks["PHI_NONNEG"].boundary_count == 0
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
        with pytest.raises(ValueError, match="need >= 2 epsilons"):
            convergence_study(vdp, [0.1], (1.6, 1.9))

    def test_non_decreasing_list_rejected(self, vdp):
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(vdp, [0.05, 0.1], (1.6, 1.9))

    def test_tiny_eps_rejected(self, vdp):
        with pytest.raises(ValueError, match="0.005"):
            convergence_study(vdp, [0.1, 0.001], (1.6, 1.9))

    def test_order_fit_matches_numpy_polyfit(self):
        np = pytest.importorskip("numpy")
        for n in (2, 3, 5, 9):
            xs = [math.log(0.1 / 2**k) for k in range(n)]
            ys = [2.0 * x - 1.0 + 0.3 * (halton(k + 1, 3) - 0.5) for k, x in enumerate(xs)]
            assert _slope(xs, ys) == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-14, abs=0)
