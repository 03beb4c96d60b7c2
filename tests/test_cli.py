import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from flowcurv import dynamics, make_system
from flowcurv.cli import RunConfig, build_parser, main

from conftest import CONFIGS, REPO

VDP = str(CONFIGS / "vdp.json")
LM = str(CONFIGS / "llibre_mereu.json")


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", VDP, "--x0", "0.1", "--y0", "0.1",
                   "--t-end", "20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,xdot,ydot,phi,E,dEdt"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ts[:-1], ts[1:]))
        summary = json.loads(capsys.readouterr().out)
        assert summary["accepted_steps"] > 100
        assert summary["final_state"]["t"] == 20.0

    def test_csv_to_stdout_and_summary_to_stderr(self, capsys):
        rc = main(["simulate", "--config", VDP, "--t-end", "1"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = out.split("\n")
        assert lines[0] == "t,x,y,xdot,ydot,phi,E,dEdt" and lines[-1] == ""
        summary = json.loads(err)
        assert summary["final_state"]["t"] == 1.0
        assert len(lines) == summary["accepted_steps"] + 3  # header, start sample, final ""

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_zero_t_end_exits_2(self):
        assert main(["simulate", "--config", VDP, "--t-end", "0"]) == 2

    def test_blow_up_exits_3(self, tmp_path):
        cfg = tmp_path / "runaway.json"
        cfg.write_text(json.dumps({"name": "runaway", "F": [0, 0, 0, -1.0],
                                   "g": [0, 1.0], "eps": 0.05}))
        rc = main(["simulate", "--config", str(cfg), "--x0", "1e80",
                   "--t-end", "1", "--tol", "1e-6"])
        assert rc == 3

    @pytest.mark.parametrize("g, x0", [([0, 1.0], "1000"), ([0, 0, 0, 0, 0, 1.0], "1e5")])
    def test_error_norm_overflow_exits_3(self, g, x0, tmp_path):
        # The square in the step's error norm overflows: a typed blow-up,
        # reported as a numerical failure, not a traceback with exit 1.
        cfg = tmp_path / "runaway.json"
        cfg.write_text(json.dumps({"name": "runaway", "F": [0, 0, 0, -1.0], "g": g, "eps": 0.05}))
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        run = subprocess.run([sys.executable, "-m", "flowcurv", "simulate", "--config", str(cfg),
                              "--x0", x0, "--t-end", "1"], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 3
        assert run.stderr == "numerical failure: blow-up\n"

    def test_finite_time_blow_up_exits_3(self, tmp_path, capsys):
        # F = -x^3 from x0 = 1e5 runs away within 2.5e-12: a blow-up, not a stall.
        cfg = tmp_path / "runaway.json"
        cfg.write_text(json.dumps({"name": "runaway", "F": [0, 0, 0, -1.0],
                                   "g": [0, 1.0], "eps": 0.05}))
        rc = main(["simulate", "--config", str(cfg), "--x0", "1e5", "--t-end", "1"])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: blow-up\n"


class TestManifold:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "branch.csv"
        rc = main(["manifold", "--config", VDP, "--x-lo", "1.25", "--x-hi", "2.0",
                   "--n", "100", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y_slow,u_slow,u_fast,fold_excluded"
        assert len(lines) == 101
        assert all(l.endswith("false") for l in lines[1:])

    def test_fold_rows_flagged(self, capsys):
        rc = main(["manifold", "--config", VDP, "--x-lo", "0.5", "--x-hi", "1.5", "--n", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert any(l.endswith("true") for l in out.strip().split("\n")[1:])

    def test_n_of_one_exits_2(self):
        assert main(["manifold", "--config", VDP, "--n", "1"]) == 2

    def test_range_refusals_name_the_config_fields(self, capsys):
        assert main(["manifold", "--config", VDP, "--x-lo", "2", "--x-hi", "1"]) == 2
        assert capsys.readouterr().err == "config error: x_lo=2.0 must be less than x_hi=1.0\n"
        assert main(["manifold", "--config", VDP, "--n", "1"]) == 2
        assert capsys.readouterr().err == "config error: n=1 must be at least 2\n"

    def test_subnormal_f_row_exits_2(self, tmp_path):
        # f = 5e-324 everywhere: the branch quadratic's s = f + sign(f)*sqrt|disc|
        # is 5e-324, whose half rounds to 0; the linear root -2*eps/s is -inf
        cfg = tmp_path / "subnormal_f.json"
        cfg.write_text(json.dumps({"name": "subnormal_f", "F": [0, 5e-324], "g": [1.0],
                                   "eps": 0.05}))
        proc = subprocess.run(
            [sys.executable, "-m", "flowcurv", "manifold", "--config", str(cfg),
             "--x-lo", "-1", "--x-hi", "1", "--n", "3"],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "config error: the slow-branch row at x=-1.0 overflows float range\n"

    def test_subnormal_f_rows_with_zero_g_print_zero_roots(self, tmp_path, capsys):
        # the same s, but g = 0: every root is g*w = 0 though w = -2*eps/s is -inf
        cfg = tmp_path / "subnormal_f.json"
        cfg.write_text(json.dumps({"name": "subnormal_f", "F": [0, 5e-324], "g": [0.0],
                                   "eps": 0.05}))
        assert main(["manifold", "--config", str(cfg), "--x-lo", "-1", "--x-hi", "1",
                     "--n", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.split("\n")[1:] == ["-1.0,-5e-324,-0.0,,false", "0.0,0.0,-0.0,,false",
                                        "1.0,5e-324,-0.0,,false", ""]

    @pytest.mark.parametrize("x_lo, x_hi, n", [("1e100", "1e101", "3")])
    def test_overflowing_rows_exit_2(self, x_lo, x_hi, n, capsys):
        # llibre_mereu's F(1e100) overflows to nan in every cell
        rc = main(["manifold", "--config", LM, "--x-lo", x_lo, "--x-hi", x_hi, "--n", n])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: the slow-branch row at x={float(x_lo)!r} overflows float range\n"

    def test_row_where_f_times_g_squared_overflows_is_finite(self, capsys):
        # at x = 1e30 on llibre_mereu (f*g)**2 ~ 1e419 overflows, while
        # w = u/g solves g'w**2 + f*w + eps = 0 with finite f, g and g'
        assert main(["manifold", "--config", LM, "--x-lo", "1e30", "--x-hi", "2e30",
                     "--n", "2"]) == 0
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[0] == "1e+30" and row[4] == "false"
        x, y_slow, u_slow, u_fast = map(float, row[:4])
        assert all(map(math.isfinite, (y_slow, u_slow, u_fast)))
        sys_ = make_system(*(json.loads((CONFIGS / "llibre_mereu.json").read_text())[k]
                             for k in ("F", "g", "eps")))
        f, g, gp, eps = sys_.f(x), sys_.g(x), sys_.gp(x), sys_.eps
        for u in (u_slow, u_fast):
            w = u / g
            terms = (gp * w * w, f * w, eps)
            assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms))

    def test_range_wider_than_float_range_exits_2(self, capsys):
        # the step (x_hi - x_lo)/(n - 1) overflows: the range is named, not a row at x=nan
        rc = main(["manifold", "--config", VDP, "--x-lo=-1e308", "--x-hi", "1e308", "--n", "3"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: the x range [-1e+308, 1e+308] is wider than float range\n"


class TestVerify:
    def test_vdp_report_structure_and_exit(self, capsys):
        rc = main(["verify", "--config", VDP])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.keys()) == ["system", "eps", "band", "n_points",
                                    "checks", "overall", "assumptions"]
        assert doc["system"] == "vdp"
        assert doc["assumptions"]["I"]["holds"] is True
        assert doc["assumptions"]["IV"]["holds"] is True
        assert list(doc["assumptions"]) == ["I", "II", "III", "IV", "positive_zero_a",
                                            "gprime_nonneg"]
        for key in ("I", "II", "III", "IV", "gprime_nonneg"):
            assert list(doc["assumptions"][key]) == ["holds", "witness", "detail"]
        # the settling layer keeps the curvature-rate check from passing
        # everywhere, so the run reports overall false
        assert doc["checks"]["PHIDOT_POS"]["fail"] > 0
        assert all(doc["checks"][cid]["fail"] == 0 for cid in doc["checks"]
                   if cid != "PHIDOT_POS")
        assert doc["overall"] is False
        assert rc == 1

    def test_far_guess_ends_at_the_step_budget(self, capsys):
        # From y = 1e9 the first pass stiffens without bound; the step
        # budget ends it with exit 3 instead of running until killed.
        rc = main(["verify", "--config", VDP, "--y-guess", "1e9"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: no return to the section within 1000000 steps\n")

    def test_unconverged_search_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "MAX_PASSES", 1)
        assert main(["verify", "--config", VDP]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: limit cycle search did not converge\n"

    def test_failed_assumptions_reported_with_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "evensquare.json"
        cfg.write_text(json.dumps({"name": "evensquare", "F": [0, -1, 0, 0.3333333333333333],
                                   "g": [0, 0, 1.0], "eps": 0.05}))
        rc = main(["verify", "--config", str(cfg)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["assumptions"]["I"]["holds"] is False
        assert "odd" in doc["assumptions"]["I"]["detail"]
        assert doc["overall"] is False
        assert doc["checks"] == {}

    def test_zero_of_F_beyond_ten_sets_the_floor(self, tmp_path, capsys):
        # F = x**3/192 - x has its positive zero at 8*sqrt(3) = 13.86, outside
        # (0, 10]: with --x-max 20 assumption IV finds it, and the vicinity
        # floor is taken from it as if --x-min had been passed by hand
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"name": "far", "F": [0, -1, 0, 1 / 192],
                                   "g": [0, 1 / 64], "eps": 0.05}))
        rc = main(["verify", "--config", str(cfg), "--x-max", "20"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        a = doc["assumptions"]["positive_zero_a"]
        assert a == pytest.approx(8 * math.sqrt(3), rel=1e-15)
        assert doc["assumptions"]["IV"]["holds"] is True
        fails = {cid: c["fail"] for cid, c in doc["checks"].items() if c["fail"]}
        assert list(fails) == ["PHIDOT_POS"] and doc["n_points"] > fails["PHIDOT_POS"]
        rc_hand = main(["verify", "--config", str(cfg), "--x-max", "20",
                        "--x-min", repr(a + 0.1)])
        assert rc_hand == 1 and json.loads(capsys.readouterr().out) == doc

    def test_x_min_beyond_the_cycle_exits_2(self, capsys):
        # vdp's cycle at eps 0.05 reaches x = 2.0223: no sample lies beyond
        # x_min = 2.5, and integrating longer cannot change that
        rc = main(["verify", "--config", VDP, "--x-min", "2.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("config error: x_min=2.5 lies beyond the orbit, "
                       "whose largest x is 2.0223\n")
        assert main(["verify", "--config", VDP, "--x-min", "2.02"]) == 1

    def test_band_too_narrow_names_the_band(self, capsys):
        # The converged cycle's nearest descending sample lies 6e-4 from the
        # slow branch: integrating longer cannot bring it within 1e-9 * eps
        rc = main(["verify", "--config", VDP, "--band", "1e-9"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: trajectory does not visit the slow vicinity")
        assert "band*eps = 5e-11" in err and "nearest lies 0.0006" in err
        assert "integrate longer" not in err


class TestEpsFloor:
    # Below the floor an integration would keep about 1/eps samples and run
    # for hours; the commands that integrate refuse it as a config error.
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_integrating_commands_exit_2(self, command, capsys):
        extra = ["--t-end", "1"] if command == "simulate" else []
        assert main([command, "--config", VDP, "--eps", "1e-9", *extra]) == 2
        assert "eps below 0.0001" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["manifold", "classify"])
    def test_commands_without_integration_still_run(self, command, tmp_path, capsys):
        # classify takes no --eps flag, so the eps comes from a config file
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc["eps"] = 1e-9
        cfg = tmp_path / "tiny_eps.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 0


class TestClassify:
    def test_vdp_case1(self, capsys):
        assert main(["classify", "--config", VDP]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "CASE1_H_NONNEG"
        assert doc["H_coeffs"] == []
        assert doc["C1_witness"] == pytest.approx(1.0)

    def test_quintic_case2(self, capsys):
        assert main(["classify", "--config", LM]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "CASE2_H_NONPOS"
        assert doc["H_coeffs"][4] == pytest.approx(-0.5)
        assert doc["H_coeffs"][6] == pytest.approx(-1 / 18)

    def test_g_with_inexact_antiderivative_coefficient(self, tmp_path, capsys):
        # G = x**2/2 + (0.21/6) x**6 is not float-exact; g = G' must still hold
        cfg = tmp_path / "quintic_g.json"
        cfg.write_text(json.dumps({"name": "quintic_g", "F": [0, -1, 0, 0.3333333333333333],
                                   "g": [0, 1, 0, 0, 0, 0.21], "eps": 0.05}))
        assert main(["classify", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "CASE2_H_NONPOS"
        assert doc["H_coeffs"] == pytest.approx([0, 0, 0, 0, 0, 0, -0.7, 0, 0, 0, -0.0294],
                                                rel=1e-15, abs=0)

    def test_mixed_case(self, tmp_path, capsys):
        cfg = tmp_path / "mixed.json"
        cfg.write_text(json.dumps({"name": "mixed", "F": [0, -1, 0, 0.3333333333333333],
                                   "g": [0, 1.0, 0, -0.05], "eps": 0.05}))
        assert main(["classify", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "MIXED"


class TestStudy:
    def test_orders_reported(self, capsys):
        rc = main(["study", "--config", VDP, "--eps-list", "0.1,0.05,0.025",
                   "--probe-lo", "1.6", "--probe-hi", "1.9"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["eps_values", "distances", "fitted_order", "distances_critical",
                             "fitted_order_critical"]
        assert doc["fitted_order"] >= 1.5
        assert abs(doc["fitted_order_critical"] - 1.0) <= 0.3
        assert len(doc["eps_values"]) == 3

    def test_probes_below_the_branch_fold_exit_2(self, capsys):
        # vdp's branch exists where f**2 >= 4*eps*g', beyond the fold
        # x_b = sqrt(1 + 2*sqrt(eps)) = 1.2777 at eps 0.1: the probes from
        # 1.1 lie on the descent but have no slow branch, which the input
        # alone decides
        rc = main(["study", "--config", VDP, "--eps-list", "0.1,0.05",
                   "--probe-lo", "1.1", "--probe-hi", "1.25"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: probe x=1.1 has no slow branch at eps=0.1\n")

    def test_single_eps_exits_2(self):
        assert main(["study", "--config", VDP, "--eps-list", "0.1"]) == 2

    def test_probe_window_off_the_orbit_exits_2(self, capsys):
        # llibre_mereu's cycle reaches x ~ 1.41 at eps 0.1, below the
        # default window [1.6, 1.9]: an input error, not a numerical one.
        rc = main(["study", "--config", LM])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "probe_lo=1.6" in err and "probe_hi=1.9" in err
        assert "x in [-1.40872, 1.40872], at eps=0.1" in err

    def test_probe_window_on_the_descent_succeeds(self, capsys):
        rc = main(["study", "--config", LM, "--probe-lo", "1.3", "--probe-hi", "1.38"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 1.8 <= doc["fitted_order"] <= 2.2


class TestOutputErrors:
    def test_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["classify", "--config", VDP, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(out) in err
        assert "Traceback" not in err
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("command", ["classify", "manifold", "simulate"])
    def test_directory_as_out_exits_2_and_leaves_no_temp_file(self, command, tmp_path, capsys):
        target = tmp_path / "a_directory"
        target.mkdir()
        assert main([command, "--config", VDP, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(target) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]
        assert list(target.iterdir()) == []


class TestDumpConfig:
    def test_round_trip_identity(self, tmp_path, capsys):
        rc = main(["verify", "--config", VDP, "--band", "2.0", "--dump-config"])
        assert rc == 0
        dumped = capsys.readouterr().out
        echo = tmp_path / "echo.json"
        echo.write_text(dumped)
        rc = main(["verify", "--config", str(echo), "--dump-config"])
        assert rc == 0
        assert capsys.readouterr().out == dumped
        cfg = RunConfig.from_dict(json.loads(dumped))
        cfg.validate()
        assert cfg.band == 2.0
        assert cfg.name == "vdp"

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"name": "x", "F": [0, 1], "g": [0, 1],
                                   "eps": 0.05, "bogus": 1}))
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_fold_tol_is_an_unknown_field(self, tmp_path, capsys):
        # a fold is where f(x) evaluates to 0: there is no threshold to set
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc["fold_tol"] = 1e-6
        cfg = tmp_path / "fold.json"
        cfg.write_text(json.dumps(doc))
        assert main(["manifold", "--config", str(cfg)]) == 2
        assert "unknown config field(s): ['fold_tol']" in capsys.readouterr().err

    def test_overflowing_coefficients_exit_2(self, tmp_path, capsys):
        # g = 1e160 x passes validation, but g'^2 overflows: H is not finite
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"name": "x", "F": [0, -1.0, 0, 1 / 3],
                                   "g": [0, 1e160], "eps": 0.05}))
        assert main(["classify", "--config", str(cfg)]) == 2
        assert "finite coefficients" in capsys.readouterr().err


class TestConfigTypes:
    # A wrongly typed field is a config error (exit 2), never a traceback
    # from deep inside a command.  An infinite t_end would make simulate's
    # stepping loop endless, so it is run through classify, which returns
    # without reading t_end when validation lets the value through.
    @pytest.mark.parametrize("command, field, value", [
        ("manifold", "n", 100.5),
        ("manifold", "tol", "1e-9"),
        ("study", "eps_list", [0.1, "a"]),
        ("simulate", "x0", None),
        ("verify", "band", "x"),
        ("classify", "t_end", math.inf),
        ("classify", "y0", math.nan),
        ("classify", "eps", True),
        ("classify", "F", [0, -1.0, 0, False]),
        ("classify", "g", [0, 1.0, math.inf]),
        ("classify", "name", 5),
    ])
    def test_wrong_type_exits_2(self, command, field, value, tmp_path, capsys):
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc[field] = value
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(doc))  # writes Infinity/NaN, which json reads back
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: field '{field}'" in capsys.readouterr().err

    def test_non_numeric_eps_list_flag_exits_2(self, capsys):
        assert main(["study", "--config", VDP, "--eps-list", "0.1,abc"]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'eps_list' must be numbers: ")

    @pytest.mark.parametrize("text, message", [
        ('{"name": "vdp",', "config file is not valid JSON: "),
        ("[0.05]", "config must be a JSON object"),
    ])
    def test_unreadable_config_exits_2(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert main(["classify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")


class TestRanges:
    # Each range is refused by the library function that reads the value,
    # and main reports its ValueError as a config error.  The message names
    # the parameter by its config field.
    @pytest.mark.parametrize("command, fields, named", [
        ("simulate", {"eps": 0}, "eps"),
        ("simulate", {"tol": 1e-2}, "tol"),
        ("verify", {"tol": 0}, "tol"),
        ("simulate", {"t_end": 0}, "t_end"),
        ("verify", {"band": 0}, "band"),
        ("manifold", {"x_lo": 2.0, "x_hi": 1.2}, "x_lo"),
        ("manifold", {"n": 1}, "n"),
        ("verify", {"y_guess": 0}, "y_guess"),
        ("study", {"y_guess": -1}, "y_guess"),
        ("verify", {"x_max": 0}, "x_max"),
        ("classify", {"x_max": -1}, "x_max"),
        ("study", {"eps_list": [0.05, 0.1]}, "eps_list"),
        ("study", {"probe_lo": 1.9, "probe_hi": 1.6}, "probe_lo"),
        ("study", {"eps_list": [0.1, 0.05, 1e-5]}, r"eps below 0\.0001"),
    ])
    def test_out_of_range_exits_2(self, command, fields, named, tmp_path, capsys):
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc.update(fields)
        cfg = tmp_path / "ranged.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert re.search(rf"\b({named})\b", err), err
        assert "Traceback" not in err

    def test_unread_field_is_not_range_checked(self, tmp_path, capsys):
        # classify reads x_max alone: a band of 0 in its config is ignored
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc["band"] = 0
        cfg = tmp_path / "band0.json"
        cfg.write_text(json.dumps(doc))
        assert main(["classify", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "CASE1_H_NONNEG"


def test_import_loads_no_numpy():
    # nor fractions/decimal: the exact root core works on plain ints, and
    # decimal alone would add milliseconds and megabytes to every CLI start;
    # nor dataclasses/inspect: the records are NamedTuples, and importing
    # dataclasses (with inspect and ast) and running its decorators cost
    # about 10 ms of every CLI start
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import sys, flowcurv, flowcurv.cli; print([m for m in "
            "('numpy', 'fractions', 'decimal', 'dataclasses', 'inspect') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cold_verify_compiles_one_kernel_one_scan_and_one_check_loop():
    # Each generated function costs an exec compile on every CLI start:
    # importing the package compiles none, a fresh verify compiles the march
    # kernel, the vicinity scan and the checks' loop once each, and classify
    # compiles none of them again.  Neither compiles the jet, the slow
    # branch or a CSV writer, which verify and classify never call: each is
    # compiled on first use.  Every compile of a generated unit passes
    # builtins.compile a label ending in its zero pattern, "<name 6-4>".
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import builtins, contextlib, io, re\n"
            "units = []\n"
            "plain = builtins.compile\n"
            "def counted(source, filename, *args, **kwargs):\n"
            "    if re.fullmatch(r'<[\\w ]+ \\d+(-\\d+)*>', str(filename)):\n"
            "        units.append(filename.split()[0])\n"
            "    return plain(source, filename, *args, **kwargs)\n"
            "builtins.compile = counted\n"
            "from flowcurv import cli, curvature, dynamics, system, verify\n"
            "binders = (dynamics._kernel, dynamics._scan, verify._tally, system._jet,\n"
            "           curvature._branch, dynamics._trajectory_writer, curvature._manifold_writer)\n"
            "at_import = [b.cache_info().misses for b in binders] + [len(units)]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['verify', '--config', 'configs/llibre_mereu.json'])\n"
            "    after_verify = [b.cache_info().misses for b in binders]\n"
            "    rc_classify = cli.main(['classify', '--config', 'configs/llibre_mereu.json'])\n"
            "print(rc, rc_classify, *at_import, *after_verify,\n"
            "      *(b.cache_info().misses for b in binders), *units)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO, capture_output=True,
                         text=True, check=True).stdout
    # verify exits 1 here: the settling layer fails PHIDOT_POS (see 05a)
    assert out.split() == ["1", "0", *"00000000", *"1110000", *"1110000",
                           "<dp5", "<vicinity", "<nine"]


# The outputs whose bytes "same behaviour" means: the reports' stdout
# literally, and the SHA-256 of the CSVs (simulate from (0.1, 0.1) to t = 20,
# manifold on [-2, 2] with 4001 rows) and of the three scripts' stdout at their
# defaults.  The study pins are the convergence study at STUDY_TOL, the slow
# descent read between samples included.  A change to any of these shows
# here; one that is meant must restate them.
REPORT_PINS = {
    ("verify", "vdp"): (
        1,
        '{"system": "vdp", "eps": 0.05, "band": 1.0, "n_points": 48, '
        '"checks": {"XDOT_NEG": {"pass": 48, "fail": 0, "min_margin": 0.05291274791460632}, '
        '"YDOT_NEG": {"pass": 48, "fail": 0, "min_margin": 1.8343044538418576}, '
        '"XDDOT_NEG": {"pass": 48, "fail": 0, "min_margin": 0.4208854521867833}, '
        '"YDDOT_POS": {"pass": 48, "fail": 0, "min_margin": 0.05291274791460632}, '
        '"PHI_NONNEG": {"pass": 48, "fail": 0, "min_margin": 1.2959755816155123}, '
        '"PHIDOT_POS": {"pass": 21, "fail": 27, "min_margin": -4645.498277309211}, '
        '"DEDT_NEG": {"pass": 48, "fail": 0, "min_margin": 0.008650420652896512}, '
        '"EQ56_BOUND": {"pass": 48, "fail": 0, "min_margin": 0.017300841305793024}, '
        '"LIE_RESIDUAL": {"pass": 48, "fail": 0, "min_margin": 9.999987638636062e-09}}, '
        '"overall": false, "assumptions": {"I": {"holds": true, "witness": -1.0, '
        '"detail": "f even, g odd, x*g > 0, f(0) < 0"}, "II": {"holds": true, "witness": 1.0, '
        '"detail": "polynomials are locally Lipschitz; |g\'| <= 1 on the window"}, '
        '"III": {"holds": true, "witness": 0.3333333333333333, '
        '"detail": "leading term is an odd power with positive coefficient"}, '
        '"IV": {"holds": true, "witness": 1.7320508075688774, '
        '"detail": "single positive zero a = 1.73205081, F monotone increasing beyond it"}, '
        '"positive_zero_a": 1.7320508075688774, "gprime_nonneg": {"holds": true, '
        '"witness": 1.0, "detail": "min g\' on [0, x_max] = 1"}}}\n'),
    ("verify", "llibre_mereu"): (
        1,
        '{"system": "llibre_mereu", "eps": 0.05, "band": 1.0, "n_points": 34, '
        '"checks": {"XDOT_NEG": {"pass": 34, "fail": 0, "min_margin": 0.018209493690206635}, '
        '"YDOT_NEG": {"pass": 34, "fail": 0, "min_margin": 2.1656060412262774}, '
        '"XDDOT_NEG": {"pass": 34, "fail": 0, "min_margin": 0.41731505870825636}, '
        '"YDDOT_POS": {"pass": 34, "fail": 0, "min_margin": 0.05428042738366988}, '
        '"PHI_NONNEG": {"pass": 34, "fail": 0, "min_margin": 1.653112789410038}, '
        '"PHIDOT_POS": {"pass": 9, "fail": 25, "min_margin": -10303.419110289318}, '
        '"DEDT_NEG": {"pass": 34, "fail": 0, "min_margin": 0.0016263600365555276}, '
        '"EQ56_BOUND": {"pass": 34, "fail": 0, "min_margin": 0.009696838000897545}, '
        '"LIE_RESIDUAL": {"pass": 34, "fail": 0, "min_margin": 9.999978361747423e-09}}, '
        '"overall": false, "assumptions": {"I": {"holds": true, "witness": -1.0, '
        '"detail": "f even, g odd, x*g > 0, f(0) < 0"}, "II": {"holds": true, "witness": 101.0, '
        '"detail": "polynomials are locally Lipschitz; |g\'| <= 101 on the window"}, '
        '"III": {"holds": true, "witness": 0.2, '
        '"detail": "leading term is an odd power with positive coefficient"}, '
        '"IV": {"holds": true, "witness": 1.2461822407708776, '
        '"detail": "single positive zero a = 1.24618224, F monotone increasing beyond it"}, '
        '"positive_zero_a": 1.2461822407708776, "gprime_nonneg": {"holds": true, '
        '"witness": 1.0, "detail": "min g\' on [0, x_max] = 1"}}}\n'),
    ("classify", "vdp"): (
        0,
        '{"case": "CASE1_H_NONNEG", "H_coeffs": [], "C1_witness": 1.0, '
        '"Gppp_sign": "NONPOS"}\n'),
    ("classify", "llibre_mereu"): (
        0,
        '{"case": "CASE2_H_NONPOS", "H_coeffs": [0.0, 0.0, 0.0, 0.0, -0.5, 0.0, '
        '-0.05555555555555555], "C1_witness": 1.0, "Gppp_sign": "NONNEG"}\n'),
    ("study", "vdp"): (
        0,
        '{"eps_values": [0.1, 0.05, 0.025], "distances": [0.011358237151759543, '
        '0.0030528662962490127, 0.0008044534341993814], "fitted_order": 1.909793108226298, '
        '"distances_critical": [0.09580698076978367, 0.0493284653985091, 0.025105533514388767], '
        '"fitted_order_critical": 0.9660626974056843}\n'),
    ("study", "llibre_mereu"): (
        0,
        '{"eps_values": [0.1, 0.05, 0.025], "distances": [0.002794877873809526, '
        '0.000717257560526402, 0.00018232670989312694], "fitted_order": 1.9690937073496235, '
        '"distances_critical": [0.05579835974222294, 0.02825187684041741, 0.01422307680832427], '
        '"fitted_order_critical": 0.9859945615640128}\n'),
}
CSV_PINS = {
    ("simulate", "vdp"):
        "e697859308e0ad0a73830b0a16a5b49b184f4915a0601d13c2828c8282284cb9",
    ("simulate", "llibre_mereu"):
        "5def464a0d72fd693ea0ceeadd5304588b2554143480234e70ca0078b6e61eae",
    ("manifold", "vdp"):
        "479c4e6b4e71eab382eb9ebf89144788dda888ac2a7bef5033d3ab9aadf9f84f",
    ("manifold", "llibre_mereu"):
        "0715715b08ee524f6cf82ed0e6d7fd7becfd02fd47a8329b965ae21758475963",
}
SCRIPT_PINS = {
    "minorsky_sweep": "2d6b48ea8457136359864b533ae96c62008c68795376fad1f83022ff2b0aeeb8",
    "order_study": "a700e61703833aab5c28a36705a777770322076bca2979f24054071cb8c99b11",
    "period_amplitude": "355854cc0df6c9dd580224f84d8f143bda60049396aeb8eeeccc27d7542814bc",
}


class TestOutputPins:
    @pytest.mark.parametrize("command, name", list(REPORT_PINS))
    def test_report_stdout(self, command, name, capsys):
        # llibre_mereu's cycle does not reach study's default window [1.6, 1.9]
        lm_study = (command, name) == ("study", "llibre_mereu")
        extra = ["--probe-lo", "1.3", "--probe-hi", "1.38"] if lm_study else []
        rc = main([command, "--config", str(CONFIGS / f"{name}.json"), *extra])
        assert (rc, capsys.readouterr().out) == REPORT_PINS[command, name]

    @pytest.mark.parametrize("command, name", list(CSV_PINS))
    def test_csv_digest(self, command, name, capsys):
        extra = {"simulate": ["--x0", "0.1", "--y0", "0.1", "--t-end", "20"],
                 "manifold": ["--x-lo", "-2", "--x-hi", "2", "--n", "4001"]}[command]
        assert main([command, "--config", str(CONFIGS / f"{name}.json"), *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CSV_PINS[command, name]

    @pytest.mark.parametrize("script", list(SCRIPT_PINS))
    def test_script_stdout_digest(self, script):
        out = subprocess.run([sys.executable, str(REPO / "scripts" / f"{script}.py")],
                             capture_output=True, check=True).stdout
        assert hashlib.sha256(out).hexdigest() == SCRIPT_PINS[script]


HELP = {
    "verify": """\
usage: flowcurv verify [-h] --config CONFIG [--out OUT] [--dump-config]
                       [--eps EPS] [--tol TOL] [--band BAND]
                       [--y-guess Y_GUESS] [--x-max X_MAX] [--x-min X_MIN]

options:
  -h, --help         show this help message and exit
  --config CONFIG    path to the system JSON config
  --out OUT          output file (default: stdout)
  --dump-config      print the merged config JSON and exit
  --eps EPS
  --tol TOL
  --band BAND
  --y-guess Y_GUESS
  --x-max X_MAX
  --x-min X_MIN
""",
    "study": """\
usage: flowcurv study [-h] --config CONFIG [--out OUT] [--dump-config]
                      [--y-guess Y_GUESS] [--probe-lo PROBE_LO]
                      [--probe-hi PROBE_HI] [--eps-list EPS_LIST]

options:
  -h, --help           show this help message and exit
  --config CONFIG      path to the system JSON config
  --out OUT            output file (default: stdout)
  --dump-config        print the merged config JSON and exit
  --y-guess Y_GUESS
  --probe-lo PROBE_LO
  --probe-hi PROBE_HI
  --eps-list EPS_LIST  comma-separated decreasing eps values
""",
}

# The override flags each subcommand reads; every other one is a usage error.
COMMAND_FLAGS = {
    "simulate": ("--eps", "--x0", "--y0", "--t-end", "--tol"),
    "manifold": ("--eps", "--x-lo", "--x-hi", "--n"),
    "verify": ("--eps", "--tol", "--band", "--y-guess", "--x-max", "--x-min"),
    "classify": ("--x-max",),
    "study": ("--y-guess", "--probe-lo", "--probe-hi", "--eps-list"),
}
# Every flag some subcommand reads, and --fold-tol, which none does.
OVERRIDE_FLAGS = sorted({f for flags in COMMAND_FLAGS.values() for f in flags} | {"--fold-tol"})


class TestParser:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    def test_accepted_flags(self):
        pairs = [(c, f) for c, flags in COMMAND_FLAGS.items() for f in flags]
        assert len(pairs) == 20
        for command, flag in pairs:
            args = build_parser().parse_args([command, "--config", VDP, flag, "2"])
            assert vars(args)[flag[2:].replace("-", "_")] in (2, 2.0, "2")

    @pytest.mark.parametrize("command, flag", [
        (c, f) for c in COMMAND_FLAGS for f in OVERRIDE_FLAGS if f not in COMMAND_FLAGS[c]])
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        # e.g. study reads eps_list, not eps, so `study --eps 1e-9` would be ignored
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", VDP, flag, "1e-9"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-9" in capsys.readouterr().err

    def test_eps_list_is_a_study_flag_only(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--config", VDP, "--eps-list", "0.1,0.05"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --eps-list 0.1,0.05" in capsys.readouterr().err

    def test_missing_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["classify"])
        assert exit_.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
