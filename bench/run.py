"""beamosc benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload sweep_grid --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each pass of a workload runs in a fresh interpreter
(bench/child.py), single-threaded, and calls beamosc.cli.main in-process
one command at a time. The run repeats passes until --seconds have gone
by, checks every output, and reports medians over the passes. Times are
rescaled to a reference host speed measured next to them (see child.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
untraced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead (traced minus untraced run_s). METRICS.md
defines every metric and the end-to-end metric each layer should move.

stdout ends with two lines: the run's details (provenance, the argv of
every command, per-pass figures, failed checks), then the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--workload all` runs every workload in turn, two lines each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
sys.path.insert(0, str(BENCH_DIR))

from tracing import PER_LAYER, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "cmd_latency_p50_s": "s",
    "cmd_latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 4          # set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 150     # one pass; the whole run must end within 180 s
PASS_FIELDS = ("traced", "setup_s", "setup_wall_s", "run_s", "run_wall_s", "work",
               "peak_rss_mb", "attempted")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 40


def _run_child(spec: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"benchmark pass failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _host_scaled(report: dict, key: str) -> float:
    """A per-layer value of one pass, its times rescaled to the reference
    speed as the pass's run_s (or setup_s, for the import) was."""
    value = report["layers"][key]
    if PER_LAYER[key] not in ("s", "us"):
        return value
    if key == "import.s":
        return value * report["setup_s"] / report["setup_wall_s"]
    return value * report["run_s"] / report["run_wall_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Run one workload for `seconds`; return (details, result). The tiny
    size is for the self-test."""
    work_root = RUNS_DIR / name
    shutil.rmtree(work_root, ignore_errors=True)

    def spec(index: int, traced: bool, setup_only: bool = False) -> dict:
        return {
            "workload": name, "seed": seed, "size": size, "trace": traced,
            "setup_only": setup_only,
            "work_dir": str((work_root / f"pass{index}").relative_to(ROOT)),
            "spans_path": str((RUNS_DIR / "spans" / f"{name}-pass{index}.bin")
                              .relative_to(ROOT)),
        }

    # The first interpreter compiles bytecode; users pay that once, so it
    # is not timed.
    first = _run_child(spec(0, False, setup_only=True))
    setups = [] if trace else [
        _run_child(spec(0, False, setup_only=True))["setup_s"]
        for _ in range(SETUP_PROBES)]

    passes: list[dict] = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        pass_spec = spec(len(passes), traced)
        rep = _run_child(pass_spec)
        shutil.rmtree(ROOT / pass_spec["work_dir"], ignore_errors=True)
        rep["traced"] = traced
        passes.append(rep)
        elapsed = time.perf_counter() - t_begin
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            break
    shutil.rmtree(work_root, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = {
            key: _median([_host_scaled(p, key) for p in traced_passes])
            for key in PER_LAYER if key in traced_passes[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            _median([p["run_s"] for p in traced_passes])
            - _median([p["run_s"] for p in plain]))
        metrics["ops_failed_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        setups += [p["setup_s"] for p in passes]
        latencies = [s for p in passes for s in p["cmd_s"]]
        metrics = {
            "setup_s": _median(setups),
            "run_s": _median([p["run_s"] for p in passes]),
            "work_per_s": _median([p["work"] / p["run_s"] for p in passes]),
            "cmd_latency_p50_s": _median(latencies),
            "cmd_latency_tail_s": _median([tail(sorted(p["cmd_s"])) for p in passes]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    n_lat = len(passes[0]["cmd_s"])
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(first["numpy"]),
        "work_unit": passes[0]["work_unit"],
        "setup_samples": setups,
        "cmd_latency_tail": (
            f"median over {len(passes)} passes of rank {n_lat - 10} of {n_lat} "
            "ascending command times" if n_lat >= 21 else
            f"median over {len(passes)} passes of the slowest of {n_lat} commands"),
        "passes": [
            {k: p[k] for k in PASS_FIELDS} | {"failed": len(p["failures"])}
            for p in passes
        ],
        "argv": passes[0]["argv"],
        "failures": [f for p in passes for f in p["failures"]][:20],
    }
    if trace:
        details["spans"] = [spec(i, True)["spans_path"]
                            for i, p in enumerate(passes) if p["traced"]]
    return details, result


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "beamosc" / "__init__.py").is_file():
        print(f"error: no beamosc source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        details, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
