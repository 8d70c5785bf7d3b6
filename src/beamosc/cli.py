"""Command line interface.

Subcommands:

  analyze      evaluate one design and print its derived figures + verdict
  table1       compare all bundled reference designs against their table
  simulate     run the time-domain startup simulation, write trace files
  sweep        map a Cartesian parameter grid to CSV/JSON
  optimize     coarse grid + log-space LP polish of a config's objective
  check-rules  run only the manufacturability rules

Exit codes: 0 success/feasible, 2 infeasible (or failed comparison, or rule
violations), 1 error (usage, bad config, invalid geometry, integrator failure).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path

from . import __version__
from .config import BUILTIN_DESIGNS, ProjectConfig, load_builtin_design, load_config
from .errors import BeamoscError, ConfigError
from .explore import evaluate, flatten, optimize, sweep
from .process import check_mems_rules
from .simulate import summarize_startup
from .traceio import json_text, write_json, write_rows, write_trace_svg


# Every option once: flag -> add_argument keywords. The value flags at the
# end are shorthands whose dest is the config key they set: they are applied
# after every --set, so the flag wins, and manifest.json records them.
_OPTIONS = {
    "--config": {"help": "JSON config file"},
    "--design": {"type": int, "choices": BUILTIN_DESIGNS,
                 "help": "start from a bundled reference design"},
    "--set": {"dest": "overrides", "action": "append", "metavar": "KEY.PATH=VALUE",
              "help": "override one config key (repeatable)"},
    "--out": {"help": "directory for output files"},
    "--format": {"choices": ("csv", "json"), "default": "csv",
                 "help": "table output format"},
    "--seed": {"dest": "sim.noise_seed", "type": int, "metavar": "N",
               "help": "same as --set sim.noise_seed=N"},
    "--gm": {"dest": "pierce.gm", "type": float, "metavar": "X",
             "help": "same as --set pierce.gm=X"},
    "--x-max": {"dest": "sim.x_max", "type": float, "metavar": "X",
                "help": "same as --set sim.x_max=X"},
    "--rho": {"dest": "materials.density", "type": float, "metavar": "X",
              "help": "same as --set materials.density=X"},
}


def _overrides(args) -> list[str]:
    """The --set assignments, then one per shorthand given (a dotted dest)."""
    return list(args.overrides or ()) + [
        f"{key}={json.dumps(value)}"
        for key, value in vars(args).items() if "." in key and value is not None
    ]


def _load_project(args) -> ProjectConfig:
    if args.config and args.design:
        raise ConfigError("pass either --config or --design, not both")
    if args.config:
        raw = load_config(args.config)
    elif args.design:
        raw = load_builtin_design(args.design)
    else:
        raw = {}
    return ProjectConfig.from_raw(raw, _overrides(args))


@contextlib.contextmanager
def _out_dir(args):
    """The --out directory (None without --out), made with its parents.
    Each command enters it before it prints anything, so a path that
    cannot be a directory is refused with nothing on stdout; if the
    command then fails, the directories it made are removed again."""
    if args.out is None:
        yield None
        return
    path = Path(args.out)
    created = [p for p in (path, *path.parents) if not p.exists()]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {args.out}: not a directory that can be made "
                          f"({err.strerror})") from None
    try:
        yield path
    except BaseException:
        if created:
            shutil.rmtree(created[-1])
        raise


def _config_digest(cfg: ProjectConfig) -> str:
    canonical = json.dumps(cfg.data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _manifest(cfg: ProjectConfig, command: str, **extra) -> dict:
    out = {
        "tool": "beamosc",
        "version": __version__,
        "command": command,
        "config_sha256": _config_digest(cfg),
        "config": cfg.data,
    }
    out.update(extra)
    return out


def _point_payload(point) -> dict:
    payload = flatten(point)
    payload["constraints"] = [dataclasses.asdict(c) for c in point.constraints]
    inputs = point.inputs
    violations = check_mems_rules(inputs.beam, inputs.transducer, inputs.rules)
    payload["rule_violations"] = [dataclasses.asdict(v) for v in violations]
    return payload


def cmd_analyze(args) -> int:
    cfg = _load_project(args)
    point = evaluate(cfg.build_inputs())
    payload = _point_payload(point)
    payload["description"] = cfg.data["description"]
    with _out_dir(args) as out:
        print(json_text(payload))
        if out is not None:
            write_json(payload, out / "analyze.json")
            write_json(_manifest(cfg, "analyze"), out / "manifest.json")
    return 0 if point.feasible else 2


def cmd_table1(args) -> int:
    from .report import build_comparison

    report = build_comparison(_overrides(args))
    with _out_dir(args) as out:
        print(report.render_text())
        if out is not None:
            if args.format == "json":
                write_rows([report.columns], json_path=out / "table1.json")
            else:
                write_rows([report.columns], csv_path=out / "table1.csv")
    return 0 if report.all_pass else 2


def cmd_simulate(args) -> int:
    cfg = _load_project(args)
    point = evaluate(cfg.build_inputs())
    x_max = cfg.x_max(point.x_limit)
    sim = cfg.build_sim()
    with _out_dir(args) as out:
        # trace.csv is written while the loop integrates (see write_rows),
        # and the summary read from the same blocks: no column of the whole
        # run is held.
        consume = None if out is None else functools.partial(
            write_rows, csv_path=out / "trace.csv")
        summary, env, plot = summarize_startup(point.circuit, point.inputs.amplifier, point.gm,
                                               sim, point.eta, x_max=x_max, consume=consume)
        summary["expected_f0_hz"] = point.circuit.f0
        summary["gm"] = point.gm
        summary["x_max_m"] = x_max if x_max != float("inf") else None
        print(json_text(summary))
        if out is not None:
            if env is not None:
                write_rows([{"t": env[:, 0], "amplitude": env[:, 1]}],
                           csv_path=out / "envelope.csv")
            write_trace_svg(plot, out / "trace.svg", env=env)
            write_json(summary, out / "summary.json")
            write_json(_manifest(cfg, "simulate", summary=summary), out / "manifest.json")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_project(args)
    spec = cfg.build_sweep_spec()
    points = feasible = 0

    def counted(blocks):
        nonlocal points, feasible
        for block in blocks:
            points += len(block["feasible"])
            feasible += int(block["feasible"].sum())
            yield block

    blocks = counted(sweep(cfg.build_inputs(), spec))
    with _out_dir(args) as out:
        if out is None:
            for _ in blocks:
                pass
        else:
            write_rows(blocks, csv_path=out / "sweep.csv", json_path=out / "sweep.json")
            write_json(
                _manifest(cfg, "sweep", axes=cfg.data["explore"]["axes"], points=points,
                          feasible=feasible),
                out / "manifest.json",
            )
    print(json_text({"points": points, "feasible": feasible}))
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_project(args)
    spec = cfg.build_sweep_spec()
    result = optimize(cfg.build_inputs(), spec)
    summary = {
        "objective": result.objective,
        "feasible": result.feasible,
        "best_params": result.best_params,
        "objective_value": result.objective_value,
        "evaluations": result.evaluations,
        "most_violated": result.most_violated,
    }
    with _out_dir(args) as out:
        print(json_text(summary))
        if out is not None:
            payload = dict(summary, binding=list(result.binding), log=result.log)
            if result.best is not None:
                payload["best_point"] = _point_payload(result.best)
            write_json(payload, out / "optimize.json")
            write_json(_manifest(cfg, "optimize", summary=summary), out / "manifest.json")
    return 0 if result.feasible else 2


def cmd_check_rules(args) -> int:
    cfg = _load_project(args)
    inputs = cfg.build_inputs()
    violations = check_mems_rules(inputs.beam, inputs.transducer, inputs.rules)
    if not violations:
        print("all manufacturability rules pass")
        return 0
    for v in violations:
        print(v.describe())
    return 2


# command -> (handler, help, the options it reads).
_COMMANDS = {
    "analyze": (cmd_analyze, "evaluate one design", "--config --design --set --out"),
    "table1": (cmd_table1, "compare bundled designs to the reference table",
               "--set --out --format --rho"),
    "simulate": (cmd_simulate, "time-domain startup simulation",
                 "--config --design --set --out --seed --gm --x-max"),
    "sweep": (cmd_sweep, "Cartesian parameter sweep", "--config --design --set --out"),
    "optimize": (cmd_optimize, "constrained objective optimization",
                 "--config --design --set --out"),
    "check-rules": (cmd_check_rules, "manufacturability rules only", "--config --design --set"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input; 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args() keeps no state, so one parser serves every main()
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beamosc",
        description="MEMS beam resonator / Pierce oscillator design toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"beamosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in options.split():
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BeamoscError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
