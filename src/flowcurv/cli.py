"""Command-line front end: simulate | manifold | verify | classify | study.

Configs are JSON objects {"name", "F", "g", "eps"} with polynomial
coefficients ascending by degree; command parameters can ride along in
the same object.  Each subcommand has a flag override for exactly the
parameters it reads (_COMMANDS), so a flag it would ignore is a usage
error.  Dense numeric series go out as CSV, reports as JSON with a
stable field order.  Output files are written atomically (temp file +
rename).

Exit codes: 0 success/verified, 1 verification false, 2 usage or config
error (an unwritable --out included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
from collections.abc import Sequence
from typing import NamedTuple

from .curvature import format_manifold_csv
from .dynamics import IntegrationError, find_limit_cycle, format_trajectory_csv, integrate
from .energy import classify_case
from .system import AssumptionCheck, LienardSystem, State, check_assumptions, make_system
from .verify import MinorskyReport, convergence_study, minorsky_report


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class OutputError(Exception):
    """An output file could not be written; the message names its path."""


# The scalar RunConfig fields and their types.
_SCALAR_FIELDS: dict[str, type] = {
    "eps": float, "x0": float, "y0": float, "t_end": float, "tol": float,
    "band": float, "x_lo": float, "x_hi": float, "n": int, "y_guess": float,
    "x_max": float, "x_min": float, "probe_lo": float, "probe_hi": float,
}


def _is_number(v) -> bool:
    """An int or float within float range; JSON true/false, Infinity and NaN are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -_sys.float_info.max <= v <= _sys.float_info.max)


class RunConfig(NamedTuple):
    """System definition plus command parameters, all round-trippable.

    An immutable record: flag overrides make a new config (``_replace``).
    The array fields default to tuples, so no two configs share a list;
    a config read from JSON holds the lists it was given.
    """

    name: str = ""
    F: Sequence[float] = ()
    g: Sequence[float] = ()
    eps: float = 0.05
    x0: float = 0.1
    y0: float = 0.1
    t_end: float = 20.0
    tol: float = 1e-9
    band: float = 1.0
    x_lo: float = 1.2
    x_hi: float = 2.0
    n: int = 100
    y_guess: float = 1.0
    x_max: float = 10.0
    x_min: float | None = None
    eps_list: Sequence[float] = (0.1, 0.05, 0.025)
    probe_lo: float = 1.6
    probe_hi: float = 1.9

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self._asdict())

    def validate(self) -> None:
        """Check each field's type and shape.

        Ranges are left to the library function that reads the value, whose
        ValueError main reports as a config error, so a command ignores the
        range of a field it does not read.
        """
        if not isinstance(self.name, str):
            raise ConfigError("field 'name' must be a string")
        for key in ("F", "g", "eps_list"):
            values = getattr(self, key)
            if not (isinstance(values, (list, tuple)) and values
                    and all(map(_is_number, values))):
                raise ConfigError(f"field '{key}' must be a non-empty array of finite numbers")
        for key, typ in _SCALAR_FIELDS.items():
            v = getattr(self, key)
            if key == "x_min" and v is None:
                continue
            if not _is_number(v):
                raise ConfigError(f"field '{key}' must be a finite number")
            if typ is int and not isinstance(v, int):
                raise ConfigError(f"field '{key}' must be an integer")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _atomic_write(path: str, text: str) -> None:
    """Write text to a temp file beside path, then rename it over path.

    On failure the temp file is removed and OutputError names the path.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


@functools.cache
def build_parser(command: "str | None" = None) -> argparse.ArgumentParser:
    """The flowcurv parser, built once per process and command (parsing leaves it unchanged).

    Every subcommand takes --config, --out and --dump-config and the
    override flags _COMMANDS gives it; an override left out is absent from
    the namespace.  No flag is abbreviated, or study's --eps-list would
    take a mistyped --eps.  Given a command, only that subcommand gets
    its flags, -h included; the others keep their names and help lines
    for usage and help.  main builds the parser for the command its first
    argument names, which is the subcommand argparse dispatches to, since
    each add_argument costs a CLI start about 30 us.
    """
    parser = argparse.ArgumentParser(
        prog="flowcurv",
        description="Slow-manifold, curvature and energy analysis of planar "
                    "two-timescale Lienard systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, fields) in _COMMANDS.items():
        dispatched = command in (None, name)
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False, add_help=dispatched)
        if not dispatched:
            continue
        sp.add_argument("--config", required=True, help="path to the system JSON config")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        sp.add_argument("--dump-config", action="store_true",
                        help="print the merged config JSON and exit")
        for field in fields:
            hint = "comma-separated decreasing eps values" if field == "eps_list" else None
            sp.add_argument(f"--{field.replace('_', '-')}", type=_SCALAR_FIELDS.get(field, str),
                            default=argparse.SUPPRESS, help=hint)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_dict(_load_config(args.config))
    overrides = {k: v for k, v in vars(args).items() if k in RunConfig._fields}
    if "eps_list" in overrides:
        try:
            overrides["eps_list"] = [float(v) for v in overrides["eps_list"].split(",")
                                     if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"field 'eps_list' must be numbers: {exc}") from exc
    cfg = cfg._replace(**overrides)
    cfg.validate()
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        _sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def cmd_simulate(sys_: LienardSystem, cfg: RunConfig, out: str | None) -> int:
    traj = integrate(sys_, State(0.0, cfg.x0, cfg.y0), cfg.t_end, cfg.tol)
    csv = format_trajectory_csv(sys_, traj)
    summary = json.dumps({
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "final_state": {"t": traj.t[-1], "x": traj.x[-1], "y": traj.y[-1]},
    })
    if out is None:
        _sys.stdout.write(csv)
        _sys.stderr.write(summary + "\n")
    else:
        _atomic_write(out, csv)
        _sys.stdout.write(summary + "\n")
    return 0


def cmd_manifold(sys_: LienardSystem, cfg: RunConfig, out: str | None) -> int:
    _emit(format_manifold_csv(sys_, cfg.x_lo, cfg.x_hi, cfg.n), out)
    return 0


def cmd_verify(sys_: LienardSystem, cfg: RunConfig, out: str | None) -> int:
    assumptions = check_assumptions(sys_, cfg.x_max)
    if assumptions.all_hold:
        cycle = find_limit_cycle(sys_, cfg.y_guess, cfg.tol, integ_tol=cfg.tol)
        if not cycle.converged:
            raise IntegrationError("limit cycle search did not converge")
        report = minorsky_report(sys_, cycle, cfg.band, system_name=cfg.name, x_min=cfg.x_min)
    else:
        report = MinorskyReport(cfg.name, cfg.eps, cfg.band, 0, {}, False)
    doc = report.to_json_dict()
    doc["assumptions"] = {key.removeprefix("assumption_"):
                          v._asdict() if isinstance(v, AssumptionCheck) else v
                          for key, v in assumptions._asdict().items()}
    _emit(json.dumps(doc) + "\n", out)
    return 0 if report.overall else 1


def cmd_classify(sys_: LienardSystem, cfg: RunConfig, out: str | None) -> int:
    cls = classify_case(sys_, cfg.x_max)
    doc = {
        "case": cls.case_label,
        "H_coeffs": cls.H_poly.to_list(),
        "C1_witness": cls.c1_witness,
        "Gppp_sign": cls.Gppp_sign,
    }
    _emit(json.dumps(doc) + "\n", out)
    return 0


def cmd_study(sys_: LienardSystem, cfg: RunConfig, out: str | None) -> int:
    study = convergence_study(
        sys_, cfg.eps_list, (cfg.probe_lo, cfg.probe_hi), y_guess=cfg.y_guess,
    )
    _emit(json.dumps(study._asdict()) + "\n", out)
    return 0


# Each subcommand's function, help line and override flags: the flags
# are the RunConfig fields the function reads (field x_lo is flag --x-lo).
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate a trajectory and export t,x,y,... CSV",
                 ("eps", "x0", "y0", "t_end", "tol")),
    "manifold": (cmd_manifold, "export the slow-branch table over an x range",
                 ("eps", "x_lo", "x_hi", "n")),
    "verify": (cmd_verify, "limit cycle -> vicinity -> sign-check report",
               ("eps", "tol", "band", "y_guess", "x_max", "x_min")),
    "classify": (cmd_classify, "sign-certify the case function H", ("x_max",)),
    "study": (cmd_study, "fit the approximation order over an eps sweep",
              ("y_guess", "probe_lo", "probe_hi", "eps_list")),
}


def main(argv: "list[str] | None" = None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ValueError as exc:  # a ConfigError included
        _sys.stderr.write(f"config error: {exc}\n")
        return 2
    if args.dump_config:
        _sys.stdout.write(cfg.to_json() + "\n")
        return 0
    try:
        return _COMMANDS[args.command][0](make_system(cfg.F, cfg.g, cfg.eps), cfg, args.out)
    except IntegrationError as exc:
        _sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except OutputError as exc:
        _sys.stderr.write(f"output error: {exc}\n")
        return 2
    except ValueError as exc:
        _sys.stderr.write(f"config error: {exc}\n")
        return 2


def console_main() -> None:
    raise SystemExit(main())
