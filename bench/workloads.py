"""The benchmark's fixed inputs and its three workloads.

Every input is a constant of this file or a bundled config: nothing is
drawn at random, so every operation of a workload does the same work.
flowcurv itself is imported only inside the set-up functions, which
makes that import part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import checks

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

SYSTEMS = ("vdp", "llibre_mereu")
# The eps sweep of scripts/minorsky_sweep.py extended to the integrator's
# lower limit, and each system's probe window on its slow descent.
EPS_LIST = (0.1, 0.05, 0.02, 0.01, 0.005)
PROBE = {"vdp": (1.6, 1.9), "llibre_mereu": (1.3, 1.38)}
CLASSIFY_X_MAX = 10.0
Y_GUESS = 1.0
CYCLE_TOL = 1e-9
BAND = 1.0
# simulate: the README's example trajectory; manifold: an x range that holds
# each system's folds (f = 0) and its rows where the branch quadratic has no
# real root.
SIM = {"x0": 0.1, "y0": 0.1, "t_end": 20.0, "eps": 0.05, "tol": 1e-9}
MANIFOLD = {"x_lo": -2.0, "x_hi": 2.0, "n": 4001}
CLI_CONFIG = "llibre_mereu"


def load_configs() -> dict[str, dict]:
    return {name: json.loads((ROOT / "configs" / f"{name}.json").read_text())
            for name in SYSTEMS}


def reference_inputs(configs: dict[str, dict]) -> dict:
    """What the reference file depends on; it records these and is refused on others."""
    return {"systems": {n: {"F": c["F"], "g": c["g"]} for n, c in configs.items()},
            "eps_list": list(EPS_LIST), "y_guess": Y_GUESS, "simulate": SIM}


def load_reference(configs: dict[str, dict]) -> dict:
    ref = json.loads(REFERENCE.read_text())
    if ref["inputs"] != reference_inputs(configs):
        raise RuntimeError(f"{REFERENCE} was made from other inputs; "
                           "run bench/make_reference.py")
    return ref


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, which is all a run may write."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR)


def flowcurv_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_flowcurv():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flowcurv
    import flowcurv.cli
    return flowcurv


# --- certify ---------------------------------------------------------------

class Certify:
    """The paper's claims for both systems, through the library API."""

    def __init__(self):
        self.fc = import_flowcurv()
        self.configs = load_configs()
        self.ref = load_reference(self.configs)

    def close(self):
        pass

    def run(self) -> dict:
        fc = self.fc
        out = {}
        for name, cfg in self.configs.items():
            base = fc.make_system(cfg["F"], cfg["g"], cfg["eps"])
            cls = fc.classify_case(base, CLASSIFY_X_MAX)
            cases = []
            for eps in EPS_LIST:
                sys_ = fc.make_system(cfg["F"], cfg["g"], eps)
                assumptions = fc.check_assumptions(sys_)
                cycle = fc.find_limit_cycle(sys_, Y_GUESS, CYCLE_TOL, integ_tol=CYCLE_TOL)
                report = fc.minorsky_report(sys_, cycle, BAND, system_name=name)
                cases.append({"eps": eps, "assumptions": assumptions, "cycle": cycle,
                              "report": report.to_json_dict()})
            study = fc.convergence_study(base, list(EPS_LIST), PROBE[name])
            out[name] = {"case": cls.case_label, "H": cls.H_poly.to_list(),
                         "cases": cases, "study": study}
        return out

    def check(self, out: dict) -> list[str]:
        problems = []
        for name, res in out.items():
            ref = self.ref["certify"][name]
            problems += checks.case_function(name, res["case"], res["H"])
            for case, ref_case in zip(res["cases"], ref):
                tag = f"{name} eps={case['eps']}"
                a = case["assumptions"]
                problems += checks.assumptions(tag, {
                    "I": a.assumption_I.holds, "II": a.assumption_II.holds,
                    "III": a.assumption_III.holds, "IV": a.assumption_IV.holds,
                    "gprime_nonneg": a.gprime_nonneg.holds})
                problems += checks.verify_report(tag, case["report"])
                cycle = case["cycle"]
                problems += checks.cycle(tag, cycle.converged, cycle.period,
                                         cycle.section_value, ref_case)
                if name == "vdp":
                    problems += checks.vdp_period(tag, case["eps"], cycle.period)
            study = res["study"]
            problems += checks.orders(name, study.fitted_order, study.fitted_order_critical)
        return problems


# --- export ----------------------------------------------------------------

class Export:
    """simulate and manifold CSV export through the in-process CLI."""

    def __init__(self):
        self.fc = import_flowcurv()
        self.configs = load_configs()
        self.ref = load_reference(self.configs)
        self.tmp = scratch_dir()
        # Verdicts by the 64-bit hash of the output: the check is a function
        # of the output text alone, so an output identical to one already
        # checked gets the same verdict without another RK4 pass over its rows.
        self.verdicts: dict[int, list[str]] = {}

    def close(self):
        self.tmp.cleanup()

    def run(self) -> dict:
        main = self.fc.cli.main
        out = {}
        for name in SYSTEMS:
            cfg = str(ROOT / "configs" / f"{name}.json")
            traj = os.path.join(self.tmp.name, f"{name}-traj.csv")
            man = os.path.join(self.tmp.name, f"{name}-manifold.csv")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                sim_rc = main(["simulate", "--config", cfg, "--x0", str(SIM["x0"]),
                               "--y0", str(SIM["y0"]), "--t-end", str(SIM["t_end"]),
                               "--eps", str(SIM["eps"]), "--tol", str(SIM["tol"]),
                               "--out", traj])
                man_rc = main(["manifold", "--config", cfg, "--x-lo", str(MANIFOLD["x_lo"]),
                               "--x-hi", str(MANIFOLD["x_hi"]), "--n", str(MANIFOLD["n"]),
                               "--out", man])
            out[name] = {"rc": (sim_rc, man_rc), "summary": buf.getvalue(),
                         "traj": traj, "manifold": man}
        return out

    def check(self, out: dict) -> list[str]:
        problems = []
        for name, res in out.items():
            cfg = self.configs[name]
            if res["rc"] != (0, 0):
                problems.append(f"{name}: exit codes {res['rc']}, want (0, 0)")
                continue
            with open(res["traj"]) as fh:
                traj_csv = fh.read()
            with open(res["manifold"]) as fh:
                man_csv = fh.read()
            digest = hash((name, traj_csv, res["summary"], man_csv))
            if digest not in self.verdicts:
                self.verdicts[digest] = (
                    checks.trajectory(name, traj_csv, res["summary"], cfg, SIM,
                                      self.ref["export"][name])
                    + checks.manifold(name, man_csv, cfg, MANIFOLD))
            problems += self.verdicts[digest]
        return problems


# --- cli -------------------------------------------------------------------

def cli_argv() -> list[str]:
    return ["verify", "--config", str(ROOT / "configs" / f"{CLI_CONFIG}.json")]


class Cli:
    """One cold `python -m flowcurv verify` child process per operation."""

    def __init__(self):
        load_configs()  # the child reads them; fail here, not in every child
        self.tmp = scratch_dir()
        self.env = flowcurv_env()
        self.peak_rss_kb = 0

    def close(self):
        self.tmp.cleanup()

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to its end and keep the largest peak RSS seen."""
        out_path = os.path.join(self.tmp.name, "stdout")
        err_path = os.path.join(self.tmp.name, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # wait4 rather than Popen.wait: it also returns the child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            return {"rc": proc.returncode, "stdout": out.read(), "stderr": err.read()}

    def run(self) -> dict:
        return self.spawn([sys.executable, "-m", "flowcurv", *cli_argv()])

    def run_traced(self, tracer_script: str, trace_path) -> dict:
        """The same command under bench/tracing.py, which writes its spans to trace_path."""
        return self.spawn([sys.executable, tracer_script, str(trace_path), *cli_argv()])

    def check(self, out: dict) -> list[str]:
        return checks.cli_verify(CLI_CONFIG, out["rc"], out["stdout"])


WORKLOADS = {"certify": Certify, "export": Export, "cli": Cli}
