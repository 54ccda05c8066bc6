"""Benchmark of ivtree grid scans and point queries.

    python3 perfbench/run.py --workload scan-serial --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the run record.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
invocation next to untraced context figures.  A summary goes to stderr.

Every end-to-end timing is host-normalized (see hostref.py); the raw figures
are reported as wall.* in traced runs.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import client
import hostref
import mpref
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(HERE, "client.py")
SPAN_ROOT = os.path.join(ROOT, ".perfbench_spans")

# README phase diagram axes; grids shift by a seeded fraction of one step
J_AXIS, JP_AXIS, T_SCAN = (-3.0, 3.0), (-3.0, 7.0), 13.0
WORKERS = 2

WORKLOADS = {
    "scan-serial": {"steps": 51, "flags": []},
    "scan-workers": {"steps": 51, "flags": ["--workers", str(WORKERS)]},
    "scan-consistency": {"steps": 21, "flags": ["--check-consistency", "--format", "jsonl"]},
    "point-queries": None,
}

SETUP_RUNS = 5
CHECKED_CELLS = 40          # cells per run checked against the 40-digit solve
COVERAGE_DRAWS = 4000       # point-query draws classified per run
RESIDUAL_TOL = 1e-9         # exact-marginalization residual at a fixed point
INVOCATION_TIMEOUT_S = 100

EXCLUDED = {
    "--curve": "a 500-sample run takes 0.23-0.28 s, the same as setup_s",
    "401x401 grids": "a serial run takes about 100 s; add once batching lands",
    "--workers above nproc": "measures the scheduler, not the program",
}
KNOWN_FAILING_REGIONS = {
    "zero-division": "beta*Jp >~ 9: critical_points raises ZeroDivisionError, "
                     "which aborts a CLI scan",
    "overflow": "|beta*J| or |beta*Jp| >~ 85: PhasePoint.error "
                "(34, 'Numerical result out of range') and kin",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Invocation:
    """One run of client.py: its output, exit code and peak RSS."""

    def __init__(self, args: list[str]):
        proc = subprocess.Popen([sys.executable, CLIENT] + args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            self.out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # with the pool workers it started
            self.out, err = proc.communicate()
        self.code = proc.returncode
        lines = err.decode(errors="replace").splitlines()
        self.rss_mb = max((int(line.split()[-1]) for line in lines
                           if line.startswith(client.RSS_TAG)), default=0) / 1024.0
        self.err = [line for line in lines if not line.startswith(client.RSS_TAG)]

    def died_of(self) -> str:
        """Exception type named on the last stderr line of a crashed child."""
        last = self.err[-1] if self.err else ""
        return last.split(":", 1)[0] if last else f"exit {self.code}"


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    return tracing.percentile(sorted(values), q)


# what a malformed child output raises while it is parsed
MALFORMED = (ValueError, KeyError, IndexError, TypeError, StopIteration)


# ---------------------------------------------------------------- scans

class Grid:
    def __init__(self, steps: int, seed: int):
        rng = random.Random(seed)
        shift_j, shift_jp = rng.random(), rng.random()
        step_j = (J_AXIS[1] - J_AXIS[0]) / (steps - 1)
        step_jp = (JP_AXIS[1] - JP_AXIS[0]) / (steps - 1)
        self.j = (J_AXIS[0] + shift_j * step_j, J_AXIS[1] + shift_j * step_j, steps)
        self.jp = (JP_AXIS[0] + shift_jp * step_jp, JP_AXIS[1] + shift_jp * step_jp, steps)
        self.cells = steps * steps

    def args(self) -> list[str]:
        return [f"--J={self.j[0]!r}:{self.j[1]!r}:{self.j[2]}",
                f"--Jp={self.jp[0]!r}:{self.jp[1]!r}:{self.jp[2]}", "--T", repr(T_SCAN)]

    def coordinates(self):
        """(J, Jp) of every cell in the J-major order the scanner emits."""
        return [(float(J), float(Jp)) for J in np.linspace(*self.j)
                for Jp in np.linspace(*self.jp)]


def _parse_scan(text: str, jsonl: bool):
    """Rows of (J text, Jp text, roots or None when the cell errored, residual)."""
    rows = []
    if jsonl:
        for line in text.splitlines():
            obj = json.loads(line)
            roots = None if "error" in obj else obj["roots"]
            rows.append((format(obj["J"], ".12g"), format(obj["Jp"], ".12g"),
                         roots, obj.get("consistency_residual")))
        return rows
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for rec in reader:
        roots = None if rec[5] == "" else [float(r) for r in rec[6].split(";") if r]
        rows.append((rec[0], rec[1], roots, None))
    return rows


def _reference_ok(roots) -> bool:
    refs = [float(r) for r in mpref.REFERENCE_ROOTS]
    return (roots is not None and len(roots) == 3
            and all(abs(r / ref - 1) < 1e-9 for r, ref in zip(roots, refs)))


def _check_cells(cells, seed: int, checks: dict) -> int:
    """40-digit check of a seeded sample of answered (J, Jp, T, roots) cells.

    Returns the number of wrong cells; tangent cells are counted, not failed.
    """
    answered = [c for c in cells if c[3] is not None]
    sample = random.Random(seed ^ 0x5EED).sample(answered, min(CHECKED_CELLS, len(answered)))
    verdicts = {"ok": 0, "tangent": 0, "wrong": 0}
    for J, Jp, T, roots in sample:
        verdicts[mpref.agrees(J / T, Jp / T, roots)] += 1
    checks["mpref_sample"] = verdicts
    return verdicts["wrong"]


def _measure_setup(clock, args, parse_roots, runs):
    """Fresh processes on the reference cell: raw and normalized seconds, and
    whether every one answered it with the frozen roots."""
    raw, norm, outputs = [], [], []
    for _ in range(runs):
        inv, seconds, normalized = clock.call(Invocation, args)
        raw.append(seconds)
        norm.append(normalized)
        outputs.append(inv)
    try:
        ok = all(inv.code == 0 and _reference_ok(parse_roots(inv.out.decode()))
                 for inv in outputs)
    except MALFORMED:
        ok = False
    return raw, norm, ok


def run_scan(name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    jsonl = "--format" in wl["flags"]
    grid = Grid(wl["steps"], seed)
    ref_args = ["--J", "-1.7", "--Jp", "6.5", "--T", "13"] + wl["flags"]
    scan_args = grid.args() + wl["flags"]

    clock = hostref.HostClock()
    setup_raw, setup_norm, setup_ok = _measure_setup(
        clock, ["cli", "-"] + ref_args, lambda text: _parse_scan(text, jsonl)[0][2],
        3 if trace else SETUP_RUNS)
    runs, raw, norm = [], [], []
    budget = seconds / 2 if trace else seconds
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < budget:
        inv, seconds_raw, seconds_norm = clock.call(Invocation, ["cli", "-"] + scan_args)
        runs.append(inv)
        raw.append(seconds_raw)
        norm.append(seconds_norm)
    traced = span_dir = None
    if trace:
        span_dir = os.path.join(SPAN_ROOT, str(os.getpid()))
        os.makedirs(span_dir)
        traced, traced_raw, traced_norm = clock.call(Invocation, ["cli", span_dir] + scan_args)

    # checks come after timing, so nothing runs between a burst and a call
    checks = {"setup_reference_roots": setup_ok, "mpref_self_test": mpref.self_test()}
    invocations = runs + ([traced] if traced else [])
    completed = [i for i in invocations if i.code == 0]
    checks["aborted"] = [i.died_of() for i in invocations if i.code != 0]
    checks["outputs_identical"] = len({hashlib.sha256(i.out).digest() for i in completed}) <= 1
    errors = wrong = 0
    try:
        rows = _parse_scan(completed[0].out.decode(), jsonl) if completed else []
    except MALFORMED as exc:
        checks["malformed_output"] = repr(exc)
        rows = []
    if rows:
        coords = grid.coordinates()
        checks["coordinates"] = len(rows) == grid.cells and all(
            row[0] == format(J, ".12g") and row[1] == format(Jp, ".12g")
            for row, (J, Jp) in zip(rows, coords))
        errors = sum(row[2] is None for row in rows)
        wrong = _check_cells([(J, Jp, T_SCAN, row[2]) for row, (J, Jp) in zip(rows, coords)],
                             seed, checks)
        if jsonl:
            residuals = [row[3] for row in rows if row[2] is not None]
            checks["residual_max"] = max(residuals, default=0.0)
            wrong += sum(r is None or not r <= RESIDUAL_TOL for r in residuals)
        if name == "scan-workers":
            checks["workers_match_serial"] = completed[0].out == _serial_reference(grid)
    checks["wrong"] = wrong

    attempted = grid.cells * len(runs)
    failed = sum(grid.cells if i.code != 0 else errors + wrong for i in runs)
    correct = (bool(rows) and not checks["aborted"] and checks["outputs_identical"] and setup_ok
               and checks["mpref_self_test"] and checks.get("coordinates", False)
               and wrong == 0 and checks.get("workers_match_serial", True))
    answered_frac = (grid.cells - errors - wrong) / grid.cells if rows else 0.0

    if not trace:
        metrics = {
            "setup_s": _median(setup_norm),
            "cells_per_s": grid.cells / _median(norm),
            "query_ms_p50": 1000 * _median(norm),
            # every cell of a scan arrives with its invocation, so a scan's
            # latency is that of the invocation; p99 of about ten is the slowest
            "query_ms_p99": 1000 * max(norm),
            "answered_frac": answered_frac,
            "peak_rss_mb": max(i.rss_mb for i in runs),
        }
    else:
        layer, failed_by_kind = tracing.summarize(_collect_spans(span_dir))
        if traced.code != 0:
            failed_by_kind["scanner.aborted"] = grid.cells
        failed_by_kind["fixpoint.wrong"] = wrong
        metrics = _layer_metrics(layer, failed_by_kind, clock.refs, {
            "wall.cells_per_s": grid.cells / _median(raw),
            "wall.setup_s": _median(setup_raw),
            "wall.query_ms_p50": 1000 * _median(raw),
            "wall.query_ms_p99": 1000 * max(raw),
            "trace.overhead_frac": traced_norm / _median(norm) - 1.0,
        })
    record = {"grid": {"J": grid.j, "Jp": grid.jp, "T": T_SCAN, "cells": grid.cells},
              "command": ["ivtree"] + scan_args, "invocations": len(runs),
              "raw_s": raw, "normalized_s": norm, "setup_raw_s": setup_raw,
              "setup_normalized_s": setup_norm, "ref_ms": clock.refs, "checks": checks}
    return correct, attempted, failed, metrics, record


def _collect_spans(span_dir: str) -> list:
    """Read and delete the span files of one traced invocation."""
    try:
        return tracing.load(span_dir)
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
        try:
            os.rmdir(SPAN_ROOT)
        except OSError:
            pass


def _serial_reference(grid: Grid) -> bytes:
    """CSV of the grid from an in-process serial scan (scan-workers must match it)."""
    from ivtree.scanner import GridSpec, emit_csv, scan_grid

    spec = GridSpec(j=grid.j, jp=grid.jp, t=(T_SCAN, T_SCAN, 1))
    return emit_csv(scan_grid(spec, workers=1)).encode()


# -------------------------------------------------------- point queries

def run_queries(seed: int, seconds: float, trace: bool):
    clock = hostref.HostClock()
    setup_raw, setup_norm, setup_ok = _measure_setup(
        clock, ["setup"], lambda text: json.loads(text)["roots"], 3 if trace else SETUP_RUNS)
    budget = seconds / 2 if trace else seconds
    loop = Invocation(["queries", str(seed), repr(budget), str(COVERAGE_DRAWS)])
    traced = span_dir = None
    if trace:
        span_dir = os.path.join(SPAN_ROOT, str(os.getpid()))
        os.makedirs(span_dir)
        traced = Invocation(["queries", str(seed), "0", str(COVERAGE_DRAWS), span_dir])

    checks = {"setup_reference_roots": setup_ok, "mpref_self_test": mpref.self_test(),
              "client_exit": [i.code for i in (loop, traced) if i is not None]}
    ok = all(code == 0 for code in checks["client_exit"])
    try:
        res = json.loads(loop.out.decode().splitlines()[-1]) if loop.code == 0 else None
    except MALFORMED:
        res, ok = None, False
    if res is None:
        print("\n".join(loop.err[-20:]), file=sys.stderr)
        res = {"coverage": [], "raw": [], "norm": [], "mismatches": 0, "refs": []}
    coverage, raw, latencies = res["coverage"], res["raw"], res["norm"]
    kinds = {}
    for _, _, outcome, _ in coverage:
        kinds[outcome] = kinds.get(outcome, 0) + 1
    checks["coverage"] = kinds
    answered = [(J, Jp, 1.0, roots) for J, Jp, outcome, roots in coverage if outcome == "answered"]
    wrong = _check_cells(answered, seed, checks)
    checks["loop_mismatches"] = res["mismatches"]
    checks["wrong"] = wrong
    traced_norm = []
    if traced is not None and traced.code == 0:
        try:
            traced_res = json.loads(traced.out.decode().splitlines()[-1])
        except MALFORMED:
            traced_res, ok = {"coverage": None, "norm": []}, False
        checks["traced_coverage_identical"] = traced_res["coverage"] == coverage
        traced_norm = traced_res["norm"]

    clock.refs.extend(res["refs"])
    n = len(latencies)
    attempted = max(n, 1)
    failed = res["mismatches"] + wrong if ok else attempted
    correct = (ok and n > 0 and res["mismatches"] == 0 and wrong == 0 and setup_ok
               and checks["mpref_self_test"] and checks.get("traced_coverage_identical", True))
    answered_frac = (len(answered) - wrong) / len(coverage) if coverage else 0.0

    if not trace:
        metrics = {
            "setup_s": _median(setup_norm),
            "cells_per_s": n / sum(latencies) if n else 0.0,
            "query_ms_p50": 1000 * _percentile(latencies, 0.5),
            "query_ms_p99": 1000 * _percentile(latencies, 0.99),
            "answered_frac": answered_frac,
            "peak_rss_mb": loop.rss_mb,
        }
    else:
        layer, failed_by_kind = tracing.summarize(_collect_spans(span_dir))
        failed_by_kind["fixpoint.wrong"] = wrong
        overhead = (statistics.fmean(traced_norm) / statistics.fmean(latencies) - 1.0
                    if latencies and traced_norm else 0.0)
        metrics = _layer_metrics(layer, failed_by_kind, clock.refs, {
            "wall.cells_per_s": n / sum(raw) if raw else 0.0,
            "wall.setup_s": _median(setup_raw),
            "wall.query_ms_p50": 1000 * _percentile(raw, 0.5),
            "wall.query_ms_p99": 1000 * _percentile(raw, 0.99),
            "trace.overhead_frac": overhead,
        })
    record = {"queries": {"coverage_draws": COVERAGE_DRAWS, "timed": n,
                          "T": 1.0, "beta_box": [12.0, 354.0]},
              "setup_raw_s": setup_raw, "setup_normalized_s": setup_norm,
              "ref_ms": clock.refs, "checks": checks}
    return correct, attempted, failed, metrics, record


# --------------------------------------------------------------- output

def _declared(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _layer_metrics(layer: dict, failed_by_kind: dict, refs: list, context: dict) -> dict:
    reported = [name[len("failed."):] for name in _declared(True)
                if name.startswith("failed.") and name != "failed.other"]
    other = {k: v for k, v in failed_by_kind.items() if k not in reported}
    if other:
        print(f"unlisted failure kinds: {other}", file=sys.stderr)
    metrics = dict(layer)
    metrics.update({f"failed.{kind}": failed_by_kind.get(kind, 0) for kind in reported})
    metrics["failed.other"] = sum(other.values())
    metrics["host.ref_ms"] = _median(refs)
    metrics.update(context)
    return metrics


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy builds without the dict form
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(),
            "blas_threads": _blas_threads(), "ref_nominal_ms": hostref.REF_NOMINAL_MS,
            "excluded": EXCLUDED, "known_failing_regions": KNOWN_FAILING_REGIONS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "ivtree", "cli.py")):
        print(f"no ivtree sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpus = hostref.pinnable_cpus()
    if cpus and args.workload != "scan-workers":
        # one CPU for the timed process and the bursts: the vCPUs of a small
        # guest change speed independently, so a burst elsewhere says nothing
        os.sched_setaffinity(0, {cpus[-1]})

    record = run_record(args)
    if args.workload == "point-queries":
        result = run_queries(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_scan(args.workload, args.seed, args.seconds, bool(args.trace))
    correct, attempted, failed, metrics, details = result
    record.update(details)
    units = _declared(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    for key, unit in units.items():
        print(f"{args.workload:17s} {key:48s} {metrics[key]:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
