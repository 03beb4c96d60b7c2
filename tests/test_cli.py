import json
import math
import os
import subprocess
import sys

import pytest

from flowcurv.cli import RunConfig, main

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

    def test_fold_tol_flag_widens_exclusion(self, capsys):
        rc = main(["manifold", "--config", VDP, "--x-lo", "1.2", "--x-hi", "1.27",
                   "--n", "3", "--fold-tol", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert all(l.endswith("true") for l in out.strip().split("\n")[1:])


class TestVerify:
    def test_vdp_report_structure_and_exit(self, capsys):
        rc = main(["verify", "--config", VDP])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.keys()) == ["system", "eps", "band", "n_points",
                                    "checks", "overall", "assumptions"]
        assert doc["system"] == "vdp"
        assert doc["assumptions"]["I"]["holds"] is True
        assert doc["assumptions"]["IV"]["holds"] is True
        # the settling layer keeps the curvature-rate check from passing
        # everywhere, so the run reports overall false
        assert doc["checks"]["PHIDOT_POS"]["fail"] > 0
        assert all(doc["checks"][cid]["fail"] == 0 for cid in doc["checks"]
                   if cid != "PHIDOT_POS")
        assert doc["overall"] is False
        assert rc == 1

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
        assert doc["fitted_order"] >= 1.5
        assert abs(doc["fitted_order_critical"] - 1.0) <= 0.3
        assert len(doc["eps_values"]) == 3

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
    ])
    def test_wrong_type_exits_2(self, command, field, value, tmp_path, capsys):
        doc = json.loads((CONFIGS / "vdp.json").read_text())
        doc[field] = value
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(doc))  # writes Infinity/NaN, which json reads back
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: field '{field}'" in capsys.readouterr().err


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = "import sys, flowcurv; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
