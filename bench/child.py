"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py '<json spec>'

The spec names the workload, seed, size, work directory and whether to
trace. The pass times its set-up (importing beamosc.cli and loading the
bundled designs), runs the workload's commands in-process through
beamosc.cli.main one at a time, records peak RSS, then checks every output.
It prints one JSON object, its report, as the last line of stdout.

With "setup_only" the pass stops after set-up; the harness uses such
passes to take several set-up samples per run.
"""

import math
import time

# Host speed. On a shared host the same pass can take twice as long from
# one minute to the next (other tenants, frequency changes). Each timed
# interval is therefore rescaled by the speed of a fixed pure-Python
# reference kernel measured just before and just after it: a time reported
# in seconds is the time the interval would take where the kernel takes
# REF_NOMINAL_S. Raw wall times are reported alongside.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 0.05
SAMPLE_EVERY_S = 0.5   # longest stretch of commands between two samples


def reference_seconds() -> float:
    """Time one run of the reference kernel: float math, calls, small
    objects and float repr, none of it from the package under test."""
    t0 = time.perf_counter()
    acc, parts = 0.0, []
    sin, sqrt = math.sin, math.sqrt
    for i in range(REF_ITERATIONS):
        x = sin(i * 1e-3) * 1.5 + sqrt(i + 1.0)
        acc += x / (1.0 + x * x)
        if i & 7 == 0:
            parts.append((i, repr(acc)))
    "".join(p[1] for p in parts)
    return time.perf_counter() - t0


_REF_BEFORE_SETUP = reference_seconds()
_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _setup():
    """Import the package and load the bundled designs; return the set-up
    time and the start and end of the import."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import beamosc.cli
    t1 = time.perf_counter()
    from beamosc.config import BUILTIN_DESIGNS, load_builtin_design

    for design in BUILTIN_DESIGNS:
        load_builtin_design(design)
    setup_s = time.perf_counter() - _T0
    if not Path(beamosc.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"beamosc imported from {beamosc.cli.__file__}, not {ROOT / 'src'}")
    return setup_s, t0, t1


def _run_command(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a lost run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


def check_results(workload, results) -> tuple[list[dict], float]:
    """Check every command's exit code and output; return the failed
    commands with their problems, and the work the others performed."""
    failures, work = [], 0.0
    for cmd, (rc, _seconds, stdout, stderr) in zip(workload.commands, results):
        if rc != cmd.expect:
            problems = [f"exit {rc}, want {cmd.expect}: {stderr.strip()[-300:]}"]
        else:
            try:
                problems = cmd.check(stdout)
            except Exception as exc:  # a check that cannot read the output fails it
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"argv": cmd.argv, "problems": problems[:5]})
            continue
        work += cmd.work(stdout)
    return failures, work


def run(spec: dict) -> dict:
    setup_wall_s, import_t0, import_t1 = _setup()
    scale = REF_NOMINAL_S / ((_REF_BEFORE_SETUP + reference_seconds()) / 2.0)
    import numpy

    report = {"setup_s": setup_wall_s * scale, "setup_wall_s": setup_wall_s,
              "numpy": numpy.__version__}
    if spec.get("setup_only"):
        return report

    sys.path.insert(0, str(BENCH_DIR))
    import beamosc.cli
    import workloads

    work_dir = Path(spec["work_dir"])
    workload = workloads.build(spec["workload"], spec["seed"], spec["size"], work_dir)
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.record("import", import_t0, import_t1)
        tracing.instrument(tracer)
    main = beamosc.cli.main

    results, cmd_s = [], []
    refs = [reference_seconds()]
    group: list[float] = []
    t_sample = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        results.append(_run_command(main, cmd.argv))
        group.append(results[-1][1])
        if time.perf_counter() - t_sample >= SAMPLE_EVERY_S or i == len(workload.commands) - 1:
            refs.append(reference_seconds())
            scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2.0)
            cmd_s += [s * scale for s in group]
            group, t_sample = [], time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_wall_s = sum(r[1] for r in results)
    run_s = sum(cmd_s)

    failures, work = check_results(workload, results)
    report.update({
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work": work,
        "work_unit": workload.work_unit,
        "argv": [cmd.argv for cmd in workload.commands],
        "cmd_s": cmd_s,
        "attempted": len(results),
        "failures": failures,
    })
    if tracer is not None:
        report["layers"] = tracing.per_layer_metrics(tracer)
        tracer.write(Path(spec["spans_path"]))
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
