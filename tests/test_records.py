"""The package's records: immutable NamedTuples with pinned fields, one accumulator."""

import json
import math

import pytest

import flowcurv
from flowcurv import (State, check_assumptions, classify_case, extract_vicinity,
                      find_limit_cycle, integrate, minorsky_report)
from flowcurv.cli import ConfigError, RunConfig
from flowcurv.verify import CheckResult, ConvergenceStudy

from conftest import load_config

# The public API: a name joins or leaves only with an edit here.
ALL = {
    "H_polynomial", "IntegrationError", "LienardSystem", "LimitCycle", "Polynomial", "State",
    "appendix_residual", "check_assumptions", "classify_case", "convergence_study",
    "curvature_energy_residual", "extract_vicinity", "find_limit_cycle", "integrate", "jet",
    "lie_residual", "make_system", "minorsky_report", "relation_rate_residual",
    "slow_branches", "slow_manifold_table",
}

FIELDS = {
    "LienardSystem": ("eps", "F", "g", "G"),
    "AssumptionCheck": ("holds", "witness", "detail"),
    "AssumptionReport": ("assumption_I", "assumption_II", "assumption_III", "assumption_IV",
                         "positive_zero_a", "gprime_nonneg"),
    "Trajectory": ("t", "x", "y", "accepted_steps", "rejected_steps", "tol_used"),
    "LimitCycle": ("period", "section_value", "orbit", "amplitude_x", "converged",
                   "iterations", "iterates"),
    "VicinitySegment": ("samples", "x_range", "band_width"),
    "CaseClassification": ("case_label", "H_poly", "Gppp_sign", "c1_witness"),
    "MinorskyReport": ("system_name", "eps", "band_multiplier", "n_points", "checks",
                       "overall"),
    "ConvergenceStudy": ("eps_values", "distances", "fitted_order", "distances_critical",
                         "fitted_order_critical"),
}


@pytest.fixture(scope="module")
def records(vdp):
    cycle = find_limit_cycle(vdp, 2.0, 1e-8, integ_tol=1e-9)
    assumptions = check_assumptions(vdp)
    return {
        "LienardSystem": vdp,
        "AssumptionCheck": assumptions.assumption_I,
        "AssumptionReport": assumptions,
        "Trajectory": integrate(vdp, State(0.0, 0.1, 0.1), 1.0, 1e-8),
        "LimitCycle": cycle,
        "VicinitySegment": extract_vicinity(cycle.orbit, vdp, 1.0),
        "CaseClassification": classify_case(vdp),
        "MinorskyReport": minorsky_report(vdp, cycle, 1.0, system_name="vdp"),
        "ConvergenceStudy": ConvergenceStudy((0.1, 0.05), (4e-3, 1e-3), 2.0,
                                             (0.1, 0.05), 1.0),
    }


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_are_pinned_and_read_only(records, name):
    rec = records[name]
    assert type(rec).__name__ == name
    assert rec._fields == FIELDS[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


def test_public_api_is_pinned():
    assert len(flowcurv.__all__) == len(ALL) and set(flowcurv.__all__) == ALL
    assert all(hasattr(flowcurv, name) for name in ALL)


def test_system_evaluator_is_read_only_and_replace_revalidates(vdp):
    for name in ("values", "f", "fp", "gp", "gpp"):
        with pytest.raises(AttributeError):
            setattr(vdp, name, getattr(vdp, name))
        with pytest.raises(AttributeError):
            delattr(vdp, name)
    faster = vdp._replace(eps=0.1)
    assert faster.eps == 0.1 and faster.F == vdp.F
    assert faster.values is not vdp.values
    assert faster.values(2.0) == vdp.values(2.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        vdp._replace(eps=0.0)


def test_check_result_accumulates():
    r = CheckResult()
    assert (r.pass_count, r.fail_count, r.min_margin) == (0, 0, math.inf)
    r.record(0.5, ok=True)
    r.record(-0.25, ok=False)
    r.record(1e-12, ok=True)
    assert (r.pass_count, r.fail_count, r.min_margin) == (2, 1, -0.25)


class TestRunConfig:
    def test_json_round_trip(self):
        cfg = RunConfig.from_dict(load_config("vdp"))._replace(band=2.0)
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again.to_json() == cfg.to_json()
        assert again == RunConfig.from_dict(json.loads(again.to_json()))
        assert list(json.loads(cfg.to_json())) == list(RunConfig._fields)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config field\(s\): \['bogus'\]"):
            RunConfig.from_dict({**load_config("vdp"), "bogus": 1})

    def test_configs_share_no_list(self):
        # the defaults are immutable, so no two configs can share a mutable one
        for value in RunConfig._field_defaults.values():
            assert isinstance(value, (str, int, float, tuple, type(None)))
        a, b = RunConfig(), RunConfig.from_dict({})
        assert a == b and not isinstance(a.eps_list, list)
        c, d = (RunConfig.from_dict(load_config("vdp")) for _ in range(2))
        assert c.F == d.F and c.F is not d.F

    def test_overrides_make_a_new_config(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.band = 2.0
        assert cfg._replace(band=2.0).band == 2.0 and cfg.band == 1.0
