"""The package's records: immutable NamedTuples with pinned fields."""

import copy
import json
import pickle

import pytest

import flowcurv
from flowcurv import (LienardSystem, Polynomial, State, check_assumptions, classify_case,
                      extract_vicinity, find_limit_cycle, integrate, jet, make_system,
                      minorsky_report)
from flowcurv.cli import ConfigError, RunConfig
from flowcurv.system import _jet
from flowcurv.verify import ConvergenceStudy

from conftest import load_config

# The public API: a name joins or leaves only with an edit here.
ALL = {
    "H_polynomial", "IntegrationError", "LienardSystem", "LimitCycle", "Polynomial", "State",
    "check_assumptions", "classify_case", "convergence_study", "extract_vicinity",
    "find_limit_cycle", "integrate", "jet", "make_system", "minorsky_report", "slow_branches",
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
    "CheckResult": ("pass_count", "fail_count", "min_margin"),
    "MinorskyReport": ("system_name", "eps", "band_multiplier", "n_points", "checks",
                       "overall"),
    "ConvergenceStudy": ("eps_values", "distances", "fitted_order", "distances_critical",
                         "fitted_order_critical"),
}


@pytest.fixture(scope="module")
def records(vdp):
    cycle = find_limit_cycle(vdp, 2.0, 1e-8, integ_tol=1e-9)
    assumptions = check_assumptions(vdp)
    report = minorsky_report(vdp, cycle, 1.0, system_name="vdp")
    return {
        "LienardSystem": vdp,
        "AssumptionCheck": assumptions.assumption_I,
        "AssumptionReport": assumptions,
        "Trajectory": integrate(vdp, State(0.0, 0.1, 0.1), 1.0, 1e-8),
        "LimitCycle": cycle,
        "VicinitySegment": extract_vicinity(cycle.orbit, vdp, 1.0),
        "CaseClassification": classify_case(vdp),
        "CheckResult": report.checks["XDOT_NEG"],
        "MinorskyReport": report,
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
    for name in ("f", "fp", "gp", "gpp", "_bound"):
        with pytest.raises(AttributeError):
            setattr(vdp, name, getattr(vdp, name))
        with pytest.raises(AttributeError):
            delattr(vdp, name)
    s = State(0.0, 2.0, 0.5)
    faster = vdp._replace(eps=0.1)
    assert faster.eps == 0.1 and faster.F == vdp.F
    # a unit binds once per system, and afresh for the new eps
    assert _jet(vdp) is _jet(vdp)
    assert _jet(faster) is not _jet(vdp)
    assert jet(faster, s)[:7] == jet(vdp, s)[:7] and jet(faster, s) != jet(vdp, s)
    with pytest.raises(ValueError, match="eps must be positive"):
        vdp._replace(eps=0.0)


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_system_and_polynomial_round_trip(clone):
    # the copy is rebuilt through __new__: derived polynomials and bound
    # units are made afresh, not copied
    sys_ = make_system([0.0, -1.0, 0.0, 1 / 3], [0.0, 1.0, 0.0, 1 / 3], 0.05)
    s = State(0.0, 1.5, -0.2)
    before = jet(sys_, s)
    assert _jet in sys_._bound
    again = clone(sys_)
    assert again == sys_ and type(again) is LienardSystem
    assert again.f == sys_.f and again.gpp == sys_.gpp
    assert again._bound is not sys_._bound
    assert [v.hex() for v in jet(again, s)] == [v.hex() for v in before]
    G = Polynomial._exact([0, 0, 3, 0, 1], 6)  # coefficients no float holds
    assert clone(G) == G and clone(G).coeffs == G.coeffs


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
