"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that:
  - BENCHMARK.json names the workloads and metrics the harness emits;
  - every workload, untraced and traced, emits every metric with its unit
    and passes its own output checks;
  - a corrupted output of each workload counts as a failed operation;
  - without src/beamosc the harness exits non-zero and prints no result.
Exits 0 when all hold, 1 otherwise. Takes about 20 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_runs" / "selftest"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

problems: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def check_emitted(name: str, trace: bool) -> None:
    details, result = run.run_workload(name, 7, 0.0, trace, size="tiny")
    label = f"{name} trace={int(trace)}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: {result['failed']} of {result['attempted']} failed: "
           f"{details['failures'][:2]}")
    units = run.PER_LAYER if trace else run.END_TO_END
    expect(list(result["metrics"]) == list(units), f"{label}: metric names differ")
    for key, unit in units.items():
        metric = result["metrics"].get(key, {})
        expect(set(metric) == {"value", "unit"} and metric["unit"] == unit
               and isinstance(metric["value"], (int, float)),
               f"{label}: {key} = {metric}")
        if not trace:
            expect(metric.get("value", 0) > 0, f"{label}: {key} is not positive")
    expect(all(details["provenance"].get(k) for k in
               ("nproc", "cpu_model", "python", "numpy", "src_sha256")),
           f"{label}: provenance incomplete")
    expect(bool(details["argv"]), f"{label}: argv not recorded")


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


CORRUPTIONS = {
    "sweep_grid": ("sweep.csv", _truncate),
    "startup_700": ("design1/trace.csv", _truncate),
    "design_session": ("table1/table1.json", lambda p: p.write_text("[]\n")),
}


def check_corruption(name: str, main) -> None:
    work_dir = SCRATCH / name
    shutil.rmtree(work_dir, ignore_errors=True)
    wl = workloads.build(name, 7, "tiny", work_dir.relative_to(ROOT))
    results = [child._run_command(main, cmd.argv) for cmd in wl.commands]
    failures, _ = child.check_results(wl, results)
    expect(not failures, f"{name}: tiny outputs fail their checks: {failures[:2]}")
    target, corrupt = CORRUPTIONS[name]
    corrupt(work_dir / "out" / target)
    failures, _ = child.check_results(wl, results)
    expect(len(failures) == 1, f"{name}: corrupted {target} gave {len(failures)} "
                               "failed operations, want 1")
    wrong = [(wl.commands[0].expect + 1,) + results[0][1:]] + results[1:]
    failures, _ = child.check_results(wl, wrong)
    expect(len(failures) >= 1, f"{name}: a wrong exit code was not a failure")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src the harness exited {proc.returncode} and printed "
           f"{proc.stdout.strip()[:200]!r}")


def main() -> int:
    os.chdir(ROOT)
    check_benchmark_json()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            check_emitted(name, trace)
    from beamosc.cli import main as cli_main

    for name in workloads.WORKLOADS:
        check_corruption(name, cli_main)
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
