#!/usr/bin/env python3
"""flowcurv benchmark: the certify, export and cli workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

With --trace 0 it measures one workload with tracing off and prints the
end-to-end metrics.  With --trace 1 it runs every workload, alternating
untraced and traced operations, and prints the per-layer metrics of each
(named <workload>.<layer>.<metric>) with the tracing overhead; the spans
and counters go to .bench_out/trace-<seed>.json.gz.  Either way the last
line of stdout is one JSON object with correct, attempted, failed and
metrics.  The load is one closed-loop client: one operation at a time,
the next one starting when the previous one and its output check are done.
Inputs are fixed (see workloads.py); --seed only names the trace file.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

# Set-ups per run (one in this process, the rest in fresh interpreters);
# setup_s is their median.
SETUPS = 5
# Fresh interpreters started for cli.interpreter_ms and cli.import_ms.
START_PROBES = 7

COUNT = "count"
MS = "ms"
# Layer metrics per workload: only where the layer does work on that workload.
_CYCLE_LAYERS = [
    ("poly.eval_calls", COUNT), ("poly.real_roots_calls", COUNT), ("poly.real_roots_ms", MS),
    ("system.check_assumptions_calls", COUNT), ("system.check_assumptions_ms", MS),
    ("curvature.slow_branches_calls", COUNT), ("curvature.slow_branches_ms", MS),
    ("dynamics.find_limit_cycle_ms", MS), ("dynamics.periods_integrated", COUNT),
    ("dynamics.orbit_steps", COUNT), ("dynamics.extract_vicinity_ms", MS),
    ("energy.point_eval_calls", COUNT),
    ("verify.evaluate_checks_ms", MS), ("verify.samples_checked", COUNT),
]
LAYER_METRICS = {
    "certify": _CYCLE_LAYERS + [
        ("energy.classify_case_ms", MS), ("verify.convergence_study_ms", MS)],
    "export": [
        ("poly.eval_calls", COUNT),
        ("curvature.slow_branches_calls", COUNT), ("curvature.slow_branches_ms", MS),
        ("dynamics.integrate_ms", MS), ("dynamics.integrate_steps", COUNT),
        ("dynamics.format_trajectory_csv_ms", MS), ("dynamics.csv_bytes", COUNT),
        ("energy.point_eval_calls", COUNT)],
    "cli": _CYCLE_LAYERS + [("cli.main_ms", MS)],
}


def timed(fn):
    """Run fn once from a collected heap; returns (seconds, result)."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def set_up(name: str):
    """Build the workload and run its untimed warm-up operation."""
    start = time.perf_counter()
    w = workloads.WORKLOADS[name]()
    out = w.run()
    return w, time.perf_counter() - start, w.check(out)


def setup_in_fresh_interpreter(name: str) -> float:
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--setup-probe"],
                          capture_output=True, text=True, cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def report(name: str, problems: list[str]) -> None:
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_run(name: str, seconds: float) -> dict:
    setups = [setup_in_fresh_interpreter(name) for _ in range(SETUPS - 1)]
    w, setup_s, problems = set_up(name)
    setups.append(setup_s)
    report(name, problems)
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    try:
        while not times or time.perf_counter() < deadline:
            dt, out = timed(w.run)
            times.append(dt)
            bad = w.check(out)
            if bad:
                failed += 1
                report(name, bad)
    finally:
        w.close()
    if isinstance(w, workloads.Cli):
        peak_kb = w.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_ms.p50": metric(1e3 * statistics.median(times), MS),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        },
    }


def traced_op(w, tracer: tracing.Tracer):
    if isinstance(w, workloads.Cli):
        path = pathlib.Path(w.tmp.name) / "trace.json"
        dt, out = timed(lambda: w.run_traced(tracing.__file__, path))
        return dt, out, json.loads(path.read_text())
    tracer.install()
    try:
        dt, out = timed(w.run)
    finally:
        tracer.uninstall()
    return dt, out, tracer.take()


def start_times_ms() -> dict[str, float]:
    """Median wall time of a bare interpreter, and what `import flowcurv` adds."""
    def median_ms(argv):
        runs = []
        for _ in range(START_PROBES):
            start = time.perf_counter()
            subprocess.run(argv, check=True, env=workloads.flowcurv_env(), cwd=workloads.ROOT)
            runs.append(time.perf_counter() - start)
        return 1e3 * statistics.median(runs)

    bare = median_ms([sys.executable, "-c", "pass"])
    return {"cli.interpreter_ms": bare,
            "cli.import_ms": median_ms([sys.executable, "-c", "import flowcurv"]) - bare}


def layer_values(records: list[dict], wanted) -> dict[str, float]:
    per_op = [{**r["counts"], **tracing.layer_times_ms(r["spans"])} for r in records]
    out = {}
    for key, unit in wanted:
        values = [op.get(key, 0) for op in per_op]
        out[key] = statistics.median_low(values) if unit == COUNT else statistics.median(values)
    return out


def traced_run(seconds: float, seed: int) -> dict:
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    metrics, dump = {}, {"seed": seed, "workloads": {}}
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        w, _, problems = set_up(name)
        report(name, problems)
        correct = correct and not problems
        plain, traced, records = [], [], []
        deadline = time.perf_counter() + seconds / len(workloads.WORKLOADS)
        try:
            while not traced or time.perf_counter() < deadline:
                dt, out = timed(w.run)
                plain.append(dt)
                dt, traced_out, record = traced_op(w, tracer)
                traced.append(dt)
                records.append(record)
                for o in (out, traced_out):
                    attempted += 1
                    bad = w.check(o)
                    if bad:
                        failed += 1
                        report(name, bad)
        finally:
            w.close()
        values = layer_values(records, LAYER_METRICS[name])
        for key, unit in LAYER_METRICS[name]:
            metrics[f"{name}.{key}"] = metric(values[key], unit)
        if name == "cli":
            for key, value in start_times_ms().items():
                metrics[f"cli.{key}"] = metric(value, MS)
        metrics[f"{name}.trace.overhead_ratio"] = metric(
            statistics.median(traced) / statistics.median(plain), "ratio")
        dump["workloads"][name] = {"untraced_s": plain, "traced_s": traced, "ops": records}
    dump["metrics"] = metrics
    with gzip.open(workloads.OUT_DIR / f"trace-{seed}.json.gz", "wt") as fh:
        json.dump(dump, fh)
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        w, setup_s, _ = set_up(args.workload)
        w.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = traced_run(args.seconds, args.seed)
    else:
        result = plain_run(args.workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
