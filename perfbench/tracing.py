"""Spans around the public functions of each ivtree layer.

install() replaces every ivtree module attribute that holds a traced function
with a wrapper, so callers that look the name up at call time (for example
``ivtree.scanner.find_positive_fixed_points`` or ``ivtree.fixpoint.scalar_map_g``)
go through it.  No file of the package changes.

Each process appends its spans to ``spans-<pid>.jsonl`` in the span directory
whenever its outermost span closes.  Pool workers are forked with the wrappers
already in place and exit without running atexit handlers, so they flush after
every cell.  summarize() turns the span files into the per-layer metrics: a
span's self time is its duration minus that of its child spans in the same
process, and a failed cell is charged to the deepest traced layer its
exception passed through.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import failures

LAYERS = {
    "cli": ("main",),
    "scanner": ("scan_grid", "evaluate_point", "emit_csv", "emit_jsonl"),
    "model": ("derive_weights", "field_from_scalar"),
    "fixpoint": ("find_positive_fixed_points", "critical_points"),
    "recurrence": ("scalar_map_g", "scalar_map_dg"),
    "oracle": ("kolmogorov_consistency_check", "finite_measure"),
}


class Tracer:
    """Span records of one process, written to the span directory."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self._start_process()

    def _start_process(self):
        self.pid = os.getpid()
        self.stack: list[int] = []
        self.spans: list[list] = []
        self.next_id = 1
        self.last_exc: BaseException | None = None
        self.last_layer = "scanner"
        self._fh = None

    def flush(self):
        if not self.spans:
            return
        if self._fh is None:
            path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
            self._fh = open(path, "a", encoding="utf-8")
        self._fh.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self._fh.flush()
        self.spans.clear()

    def close(self):
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:      # first call in a forked worker
                self._start_process()
            if name == "evaluate_point":
                self.last_exc = None
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self.last_exc:    # the deepest wrapper sees it first
                    self.last_exc, self.last_layer = exc, layer
                info = {"fail": f"{self.last_layer}.{failures.raised_kind(exc)}"}
                raise
            else:
                info = self._describe(name, args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append([span_name, t0, t1, sid, parent, info])
                if not self.stack:
                    self.flush()

        return traced

    def _describe(self, name, args, kwargs, result):
        if name == "find_positive_fixed_points":
            return {"roots": result.count, "quartic": len(result.quartic_roots)}
        if name == "kolmogorov_consistency_check":
            return {"residual": result}
        if name in ("emit_csv", "emit_jsonl"):
            return {"bytes": len(result.encode()), "rows": len(args[0])}
        if name == "scan_grid":
            return {"workers": kwargs.get("workers", args[1] if len(args) > 1 else 1)}
        if name == "evaluate_point" and result.error is not None:
            layer = "scanner"
            if self.last_exc is not None and str(self.last_exc) == result.error:
                layer = self.last_layer
            return {"fail": f"{layer}.{failures.error_kind(result.error)}"}
        return None


def install(span_dir: str) -> Tracer:
    """Wrap the traced functions in every loaded ivtree module."""
    owners = {layer: importlib.import_module(f"ivtree.{layer}") for layer in LAYERS}
    tracer = Tracer(span_dir)
    modules = [m for key, m in sys.modules.items()
               if key == "ivtree" or key.startswith("ivtree.")]
    for layer, names in LAYERS.items():
        owner = owners[layer]
        for name in names:
            original = getattr(owner, name)
            wrapper = tracer.wrap(layer, name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
    return tracer


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def load(span_dir: str) -> list[list]:
    spans = []
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-"):
            pid = int(entry[len("spans-"):-len(".jsonl")])
            with open(os.path.join(span_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) + [pid] for line in fh)
    return spans


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics and failure counts (by layer.kind) from span records."""
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, t0, t1, sid, parent, info, pid in spans:
        durations[name].append(t1 - t0)
        if parent:
            child_time[(pid, parent)] += t1 - t0
    self_time = defaultdict(float)
    for name, t0, t1, sid, parent, info, pid in spans:
        self_time[name] += (t1 - t0) - child_time[(pid, sid)]

    def calls(name):
        return len(durations[name])

    def total(name):
        return math.fsum(durations[name])

    def us(name, q):
        return 1e6 * percentile(sorted(durations[name]), q)

    infos = defaultdict(list)
    for name, *_, info, pid in spans:
        if info:
            infos[name].append(info)

    fps = "fixpoint.find_positive_fixed_points"
    solved = [i for i in infos[fps] if "roots" in i]
    emits = infos["scanner.emit_csv"] + infos["scanner.emit_jsonl"]
    emit_s = total("scanner.emit_csv") + total("scanner.emit_jsonl")
    emit_rows = sum(e["rows"] for e in emits)
    pool_capacity = math.fsum(
        (t1 - t0) * info.get("workers", 1) for name, t0, t1, sid, parent, info, pid in spans
        if name == "scanner.scan_grid")
    residuals = [i["residual"] for i in infos["oracle.kolmogorov_consistency_check"]]

    metrics = {
        f"{fps}.calls": calls(fps),
        f"{fps}.s": total(fps),
        f"{fps}.us_p50": us(fps, 0.5),
        f"{fps}.us_p99": us(fps, 0.99),
        "fixpoint.critical_points.calls": calls("fixpoint.critical_points"),
        "fixpoint.critical_points.s": total("fixpoint.critical_points"),
        "fixpoint.roots_per_call": (sum(i["roots"] for i in solved) / len(solved)
                                    if solved else 0.0),
        "fixpoint.quartic_disagree_frac": (
            sum(i["roots"] != i["quartic"] for i in solved) / len(solved) if solved else 0.0),
        "recurrence.scalar_map_g.calls": calls("recurrence.scalar_map_g"),
        "recurrence.scalar_map_dg.calls": calls("recurrence.scalar_map_dg"),
        "model.derive_weights.calls": calls("model.derive_weights"),
        "model.derive_weights.s": total("model.derive_weights"),
        "model.field_from_scalar.calls": calls("model.field_from_scalar"),
        "oracle.kolmogorov_consistency_check.calls": calls("oracle.kolmogorov_consistency_check"),
        "oracle.kolmogorov_consistency_check.s": total("oracle.kolmogorov_consistency_check"),
        "oracle.kolmogorov_consistency_check.us_p50": us("oracle.kolmogorov_consistency_check", 0.5),
        "oracle.finite_measure.calls": calls("oracle.finite_measure"),
        "oracle.finite_measure.s": total("oracle.finite_measure"),
        "oracle.residual_max": max(residuals, default=0.0),
        "scanner.scan_grid.s": total("scanner.scan_grid"),
        "scanner.scan_grid.self_s": self_time["scanner.scan_grid"],
        "scanner.evaluate_point.calls": calls("scanner.evaluate_point"),
        "scanner.evaluate_point.us_p50": us("scanner.evaluate_point", 0.5),
        "scanner.evaluate_point.us_p99": us("scanner.evaluate_point", 0.99),
        "scanner.emit.s": emit_s,
        "scanner.emit.bytes": sum(e["bytes"] for e in emits),
        "scanner.emit.us_per_row": 1e6 * emit_s / emit_rows if emit_rows else 0.0,
        "scanner.pool.busy_frac": (total("scanner.evaluate_point") / pool_capacity
                                   if pool_capacity else 0.0),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": self_time["cli.main"],
    }
    failed = defaultdict(int)
    for info in infos["scanner.evaluate_point"]:
        if "fail" in info:
            failed[info["fail"]] += 1
    return metrics, dict(failed)
