"""Command line interface.

Subcommands:

  analyze      evaluate one design and print its derived figures + verdict
  table1       compare all bundled reference designs against their table
  simulate     run the time-domain startup simulation, write trace files
  sweep        map a Cartesian parameter grid to CSV/JSON
  optimize     coarse grid + simplex refinement of a config's objective
  check-rules  run only the manufacturability rules

Exit codes: 0 success/feasible, 2 infeasible (or failed comparison, or rule
violations), 1 error (bad config, invalid geometry, integrator failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from importlib import metadata
from pathlib import Path

from .config import ProjectConfig, load_builtin_design, load_config
from .errors import BeamoscError, ConfigError
from .explore import evaluate, flatten, optimize, sweep
from .pierce import PierceConfig
from .process import check_mems_rules
from .simulate import _summarize, simulate_startup
from .traceio import json_text, write_json, write_rows, write_trace_svg


def _version() -> str:
    try:
        return metadata.version("beamosc")
    except metadata.PackageNotFoundError:
        return "0.0.0"


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--design", type=int, choices=(1, 2, 3),
                    help="start from a bundled reference design")
    sp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY.PATH=VALUE",
                    help="override one config key (repeatable)")
    sp.add_argument("--out", help="directory for output files")
    sp.add_argument("--seed", type=int, help="override sim.noise_seed")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table output format (table1)")


def _load_project(args) -> ProjectConfig:
    if args.config and args.design:
        raise ConfigError("pass either --config or --design, not both")
    if args.config:
        raw = load_config(args.config)
    elif args.design:
        raw = load_builtin_design(args.design)
    else:
        raw = {}
    return ProjectConfig.from_raw(raw, args.overrides)


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_finite(option: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{option}: must be a finite number, got {value!r}")


def _config_digest(cfg: ProjectConfig) -> str:
    canonical = json.dumps(cfg.data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _manifest(cfg: ProjectConfig, command: str, **extra) -> dict:
    out = {
        "tool": "beamosc",
        "version": _version(),
        "command": command,
        "config_sha256": _config_digest(cfg),
        "config": cfg.data,
    }
    out.update(extra)
    return out


def _point_payload(point) -> dict:
    payload = flatten(point)
    payload["constraints"] = [
        {
            "name": c.name,
            "ok": c.ok,
            "measured": c.measured,
            "limit": c.limit,
            "violation": c.violation,
        }
        for c in point.constraints
    ]
    payload["rule_violations"] = [
        {"rule": v.rule, "measured": v.measured, "limit": v.limit}
        for v in point.rule_violations
    ]
    return payload


def cmd_analyze(args) -> int:
    cfg = _load_project(args)
    point = evaluate(cfg.build_inputs())
    payload = _point_payload(point)
    payload["description"] = cfg.data["description"]
    print(json_text(payload))
    out = _out_dir(args)
    if out is not None:
        write_json(payload, out / "analyze.json")
        write_json(_manifest(cfg, "analyze"), out / "manifest.json")
    return 0 if point.feasible else 2


def cmd_table1(args) -> int:
    from .report import build_comparison

    overrides = list(args.overrides)
    if args.rho is not None:
        overrides.append(f"materials.density={args.rho!r}")
    report = build_comparison(overrides)
    print(report.render_text())
    out = _out_dir(args)
    if out is not None:
        rows = report.to_rows()
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        if args.format == "json":
            write_rows(columns, json_path=out / "table1.json")
        else:
            write_rows(columns, csv_path=out / "table1.csv")
    return 0 if report.all_pass else 2


def cmd_simulate(args) -> int:
    cfg = _load_project(args)
    _check_finite("--gm", args.gm)
    _check_finite("--x-max", args.x_max)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    point = evaluate(cfg.build_inputs())
    gm = args.gm if args.gm is not None else point.gm
    amplifier = PierceConfig(
        c1=point.inputs.c1, c2=point.inputs.c2, c0=point.inputs.c0,
        gm=gm, f0=point.circuit.f0,
    )
    x_max = args.x_max if args.x_max is not None else cfg.x_max(point.x_limit)
    trace = simulate_startup(
        point.circuit, amplifier, cfg.build_sim(args.seed), point.eta, x_max=x_max
    )
    summary, env = _summarize(trace)
    summary["expected_f0_hz"] = point.circuit.f0
    summary["gm"] = gm
    summary["x_max_m"] = x_max if x_max != float("inf") else None
    print(json_text(summary))
    out = _out_dir(args)
    if out is not None:
        write_rows({"t": trace.time, "v_in": trace.v_in, "v_out": trace.v_out,
                    "x": trace.x}, csv_path=out / "trace.csv")
        if env is not None:
            write_rows({"t": env[:, 0], "amplitude": env[:, 1]},
                       csv_path=out / "envelope.csv")
        write_trace_svg(trace, out / "trace.svg", env=env)
        write_json(summary, out / "summary.json")
        write_json(_manifest(cfg, "simulate", summary=summary), out / "manifest.json")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_project(args)
    spec = cfg.build_sweep_spec()
    columns = sweep(cfg.build_inputs(), spec)
    n_points = len(columns["feasible"])
    n_feasible = int(columns["feasible"].sum())
    print(json_text({"points": n_points, "feasible": n_feasible}))
    out = _out_dir(args)
    if out is not None:
        write_rows(columns, csv_path=out / "sweep.csv", json_path=out / "sweep.json")
        axes = [
            {"path": a.path, "min": a.minimum, "max": a.maximum,
             "steps": a.steps, "scale": a.scale}
            for a in spec.axes
        ]
        write_json(
            _manifest(cfg, "sweep", axes=axes, points=n_points,
                      feasible=n_feasible),
            out / "manifest.json",
        )
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
    print(json_text(summary))
    out = _out_dir(args)
    if out is not None:
        payload = dict(summary)
        payload["log"] = list(result.log)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamosc",
        description="MEMS beam resonator / Pierce oscillator design toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"beamosc {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="evaluate one design")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("table1", help="compare bundled designs to the reference table")
    _add_common(sp)
    sp.add_argument("--rho", type=float,
                    help="shorthand for --set materials.density=RHO")
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("simulate", help="time-domain startup simulation")
    _add_common(sp)
    sp.add_argument("--gm", type=float, help="override the amplifier gm, A/V")
    sp.add_argument("--x-max", dest="x_max", type=float,
                    help="displacement guard override, m")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="Cartesian parameter sweep")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("optimize", help="constrained objective optimization")
    _add_common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("check-rules", help="manufacturability rules only")
    _add_common(sp)
    sp.set_defaults(func=cmd_check_rules)

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
