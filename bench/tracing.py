"""Spans and counters at flowcurv's module boundaries, from outside the program.

install() replaces the public functions below with wrappers wherever the
package binds them (check_assumptions, for instance, is also reached
through flowcurv.dynamics), and uninstall() puts the originals back, so
untraced operations run the program exactly as shipped.  A span records
(name, start, end, parent); a layer's self time is a span's
duration minus the time its child spans cover.

Run as a script, it is the traced form of the cli workload's child:

    python bench/tracing.py OUT.json verify --config configs/llibre_mereu.json

runs `flowcurv` with those arguments under the tracer and writes the
spans and counters to OUT.json.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from collections import Counter

# Span name -> (defining module, function).
SPANNED = {
    "poly.real_roots": ("flowcurv.poly", "real_roots"),
    "system.check_assumptions": ("flowcurv.system", "check_assumptions"),
    "curvature.slow_branches": ("flowcurv.curvature", "slow_branches"),
    "dynamics.find_limit_cycle": ("flowcurv.dynamics", "find_limit_cycle"),
    "dynamics.integrate": ("flowcurv.dynamics", "integrate"),
    "dynamics.extract_vicinity": ("flowcurv.dynamics", "extract_vicinity"),
    "dynamics.format_trajectory_csv": ("flowcurv.dynamics", "format_trajectory_csv"),
    "energy.classify_case": ("flowcurv.energy", "classify_case"),
    "verify.evaluate_checks": ("flowcurv.verify", "evaluate_checks"),
    "verify.convergence_study": ("flowcurv.verify", "convergence_study"),
    "cli.main": ("flowcurv.cli", "main"),
}
# Per-point functions called too often for a span each: counted only.
COUNTED = {
    "energy.point_eval_calls": [("flowcurv.energy", "total_energy"),
                                ("flowcurv.energy", "energy_rate"),
                                ("flowcurv.energy", "H_rate")],
}


def _work_counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work done inside a call, read from its arguments and result."""
    if name == "dynamics.find_limit_cycle":
        orbit = result.orbit
        return {"dynamics.periods_integrated": result.iterations + 1,
                "dynamics.orbit_steps": orbit.accepted_steps + orbit.rejected_steps}
    if name == "dynamics.integrate":
        return {"dynamics.integrate_steps": result.accepted_steps + result.rejected_steps}
    if name == "dynamics.format_trajectory_csv":
        return {"dynamics.csv_bytes": len(result.encode())}
    if name == "verify.evaluate_checks":
        return {"verify.samples_checked": len(args[1])}
    return {}


class Tracer:
    """Spans and counters of one operation, kept in memory until take()."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def take(self) -> dict:
        """The operation's spans and counts; the tracer starts afresh."""
        out = {"spans": list(self.spans), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out

    def _span(self, name: str, fn):
        spans, counts, stack, clock = self.spans, self.counts, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            counts[name + "_calls"] += 1
            counts.update(_work_counts(name, args, result))
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        import flowcurv.poly

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flowcurv" or n.startswith("flowcurv."))]
        wrappers = []
        for name, (mod, attr) in SPANNED.items():
            orig = getattr(sys.modules[mod], attr)
            wrappers.append((orig, self._span(name, orig)))
        for name, targets in COUNTED.items():
            for mod, attr in targets:
                orig = getattr(sys.modules[mod], attr)
                wrappers.append((orig, self._count(name, orig)))
        for orig, wrapper in wrappers:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        poly_cls = flowcurv.poly.Polynomial
        self._undo.append((poly_cls, "__call__", poly_cls.__call__))
        poly_cls.__call__ = self._count("poly.eval_calls", poly_cls.__call__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def layer_times_ms(spans: list[list]) -> dict[str, float]:
    """Self time per span name in ms; cli.main, the whole command, is inclusive."""
    inner = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, parent), covered in zip(spans, inner):
        own = end - start if name == "cli.main" else end - start - covered
        out[name + "_ms"] += 1e3 * own
    return dict(out)


def _child_main(argv: list[str]) -> int:
    out_path, flowcurv_argv = argv[0], argv[1:]
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    import flowcurv.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = flowcurv.cli.main(flowcurv_argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(tracer.take(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
