"""Span tracing of the beamosc package from outside, for the traced run.

instrument() wraps every public function and public method of the traced
modules, and rebinds each name in every beamosc module that imported it,
so calls between modules pass through the wrappers too. No file of the
package changes. Each call records a span (name, start, end, parent) in
flat in-memory arrays; the spans are written once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans. A layer's time (`<module>.s`) counts only the outermost span of
that module, so nested calls inside one module are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = (
    "cli", "config", "explore", "process", "mechanics", "transduction",
    "pierce", "simulate", "traceio", "report",
)

# Per-layer metrics of the traced run: name -> unit. METRICS.md gives the
# end-to-end metric each one should move, and on which workload.
PER_LAYER = {
    "import.s": "s",
    "config.s": "s",
    "config.calls": "count",
    "explore.evaluate.calls": "count",
    "explore.evaluate.us_p50": "us",
    "explore.evaluate.us_tail": "us",
    "explore.evaluate.self_s": "s",
    "explore.set_parameter.s": "s",
    "explore.flatten.s": "s",
    "explore.sweep.s": "s",
    "explore.optimize.s": "s",
    "process.s": "s",
    "mechanics.s": "s",
    "transduction.s": "s",
    "pierce.s": "s",
    "explore.optimize.evaluations": "count",
    "explore.optimize.feasible_ratio": "ratio",
    "simulate.integrate.s": "s",
    "simulate.us_per_step": "us",
    "simulate.steps": "count",
    "simulate.envelope.calls": "count",
    "simulate.analysis.s": "s",
    "simulate.trace_bytes": "bytes",
    "traceio.trace_csv.s": "s",
    "traceio.trace_csv.us_per_row": "us",
    "traceio.trace_csv.bytes": "bytes",
    "traceio.rows_csv.s": "s",
    "traceio.json.s": "s",
    "traceio.json.bytes": "bytes",
    "traceio.svg.s": "s",
    "report.build_comparison.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "ops_failed_ratio": "ratio",
}


def tail(sorted_values) -> float:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest sample. Below 21 samples that rank is at or under the
    median, so the maximum is reported instead."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return float(sorted_values[n - 11] if n >= 21 else sorted_values[-1])


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.outermost = array("b")   # no enclosing span of the same module
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child time]
        self._depth: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span; after(tracer, args, result) runs
        once the span has closed and may record counters."""
        nid = self._name_id(name)
        module = name.split(".", 1)[0]
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        names, parents, starts, ends, selfs, outer = (
            self.name, self.parent, self.start, self.end, self.self_s,
            self.outermost)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            level = depth.get(module, 0)
            outer.append(level == 0)
            depth[module] = level + 1
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[module] = level
                dur = t1 - t0
                ends[idx] = t1
                selfs[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.name.append(self._name_id(name))
        self.parent.append(-1)
        self.start.append(t0)
        self.end.append(t1)
        self.self_s.append(t1 - t0)
        self.outermost.append(True)

    # ------------------------------------------------------------ summary

    def durations(self, name: str):
        """Durations and self times of every span with this name."""
        if name not in self._ids:
            return np.empty(0), np.empty(0)
        mask = np.frombuffer(self.name, dtype=np.int32) == self._ids[name]
        start = np.frombuffer(self.start, dtype=np.float64)[mask]
        end = np.frombuffer(self.end, dtype=np.float64)[mask]
        return end - start, np.frombuffer(self.self_s, dtype=np.float64)[mask]

    def layer_seconds(self) -> dict[str, float]:
        """Inclusive time per module, counting outermost spans only, and
        self time per module."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        selfs = np.frombuffer(self.self_s, dtype=np.float64)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        module_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        out: dict[str, float] = {}
        for module in set(module_of.tolist()):
            in_module = np.isin(ids, np.nonzero(module_of == module)[0])
            out[f"{module}.s"] = float(dur[in_module & outer].sum())
            out[f"{module}.calls"] = float((in_module & outer).sum())
            out[f"{module}.self_s"] = float(selfs[in_module].sum())
        return out

    def write(self, path: Path) -> None:
        """Write every span: a JSON header of names, then the arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i4"], ["parent", "i4"], ["start", "f8"],
                       ["end", "f8"], ["self_s", "f8"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.self_s):
                arr.tofile(fh)


# ------------------------------------------------------- instrumentation

def _after_simulate(tracer, args, trace):
    tracer.count("simulate.steps", len(trace.time) - 1)
    tracer.count("simulate.trace_bytes", sum(
        a.nbytes for a in (trace.time, trace.v_in, trace.v_out, trace.x,
                           trace.branch_current)))


def _after_trace_csv(tracer, args, result):
    trace, path = args[0], args[1]
    tracer.count("traceio.trace_csv.rows", len(trace.time))
    tracer.count("traceio.trace_csv.bytes", os.path.getsize(path))


def _after_json(tracer, args, result):
    tracer.count("traceio.json.bytes", os.path.getsize(args[1]))


def _after_optimize(tracer, args, result):
    tracer.count("explore.optimize.evaluations", result.evaluations)
    tracer.count("explore.optimize.feasible", sum(1 for e in result.log if e["feasible"]))


AFTER = {
    "simulate.simulate_startup": _after_simulate,
    "traceio.write_trace_csv": _after_trace_csv,
    "traceio.write_json": _after_json,
    "explore.optimize": _after_optimize,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of the traced modules, and
    rebind every beamosc module's reference to a wrapped function."""
    replaced: dict[int, object] = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"beamosc.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                replaced[id(obj)] = tracer.wrap(obj, name, AFTER.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, obj, f"{short}.{attr}")
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "beamosc":
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(mod, attr, wrapper)


def _wrap_methods(tracer: Tracer, cls, prefix: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, f"{prefix}.{attr}")))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(raw, f"{prefix}.{attr}"))


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value the tracer can give, except the ones the
    harness adds (trace.overhead_s, ops_failed_ratio)."""
    layers = tracer.layer_seconds()
    c = tracer.counters

    def total(name):
        return float(tracer.durations(name)[0].sum())

    ev, ev_self = tracer.durations("explore.evaluate")
    ev_us = np.sort(ev) * 1e6
    integrate = total("simulate.simulate_startup")
    steps = c.get("simulate.steps", 0.0)
    csv_s = total("traceio.write_trace_csv")
    csv_rows = c.get("traceio.trace_csv.rows", 0.0)
    evaluations = c.get("explore.optimize.evaluations", 0.0)
    return {
        "import.s": total("import"),
        "config.s": layers.get("config.s", 0.0),
        "config.calls": layers.get("config.calls", 0.0),
        "explore.evaluate.calls": float(len(ev)),
        "explore.evaluate.us_p50": float(np.median(ev_us)) if len(ev_us) else 0.0,
        "explore.evaluate.us_tail": tail(ev_us),
        "explore.evaluate.self_s": float(ev_self.sum()),
        "explore.set_parameter.s": total("explore.set_parameter"),
        "explore.flatten.s": total("explore.flatten"),
        "explore.sweep.s": total("explore.sweep"),
        "explore.optimize.s": total("explore.optimize"),
        "process.s": layers.get("process.s", 0.0),
        "mechanics.s": layers.get("mechanics.s", 0.0),
        "transduction.s": layers.get("transduction.s", 0.0),
        "pierce.s": layers.get("pierce.s", 0.0),
        "explore.optimize.evaluations": evaluations,
        "explore.optimize.feasible_ratio": (
            c.get("explore.optimize.feasible", 0.0) / evaluations if evaluations else 0.0),
        "simulate.integrate.s": integrate,
        "simulate.us_per_step": integrate / steps * 1e6 if steps else 0.0,
        "simulate.steps": steps,
        "simulate.envelope.calls": float(len(tracer.durations("simulate.envelope")[0])),
        "simulate.analysis.s": layers.get("simulate.s", 0.0) - integrate,
        "simulate.trace_bytes": c.get("simulate.trace_bytes", 0.0),
        "traceio.trace_csv.s": csv_s,
        "traceio.trace_csv.us_per_row": csv_s / csv_rows * 1e6 if csv_rows else 0.0,
        "traceio.trace_csv.bytes": c.get("traceio.trace_csv.bytes", 0.0),
        "traceio.rows_csv.s": total("traceio.write_rows_csv"),
        "traceio.json.s": total("traceio.write_json"),
        "traceio.json.bytes": c.get("traceio.json.bytes", 0.0),
        "traceio.svg.s": total("traceio.write_trace_svg"),
        "report.build_comparison.s": total("report.build_comparison"),
        "cli.self_s": layers.get("cli.self_s", 0.0),
    }
