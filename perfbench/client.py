"""Child processes of the benchmark; run from the checkout root with PYTHONPATH=src.

    python3 perfbench/client.py cli SPAN_DIR|- ARG...
        the ivtree command line, traced when given a span directory
    python3 perfbench/client.py setup
        answer the reference cell through the library, print its roots
    python3 perfbench/client.py queries SEED SECONDS COVERAGE [SPAN_DIR]
        point-query client: a coverage pass over COVERAGE seeded draws, then a
        closed loop over the answered draws for SECONDS (or, given SPAN_DIR, one
        traced sweep over them); prints one JSON object

Every mode ends by writing "perfbench peak_rss_kb N" to stderr: the peak RSS
of this process since exec, or of any child it reaped (pool workers).  The
benchmark cannot take it from wait4, whose figure includes the memory of the
benchmark process the child was forked from.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import sys
import time

RSS_TAG = "perfbench peak_rss_kb"

REFERENCE_CELL = (-1.7, 6.5, 13.0)

# a closed-loop batch between two reference bursts; about twice a burst
BATCH_S = 0.6


def _one_cell(scanner, J, Jp, T):
    spec = scanner.GridSpec(j=(J, J, 1), jp=(Jp, Jp, 1), t=(T, T, 1))
    return scanner.scan_grid(spec)[0]


def setup() -> int:
    import ivtree.scanner as scanner

    point = _one_cell(scanner, *REFERENCE_CELL)
    print(json.dumps({"roots": list(point.roots), "error": point.error}))
    return 0


def draws(seed: int, n: int) -> list[tuple[float, float]]:
    """(beta J, beta Jp) at T = 1: even draws uniform on |.| <= 12, where the
    one/three-root structure and the ZeroDivisionError band lie, odd draws
    uniform over the whole accepted box |.| <= 354."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        r = 12.0 if i % 2 == 0 else 354.0
        out.append((rng.uniform(-r, r), rng.uniform(-r, r)))
    return out


def _closed_loop(scanner, clock, answered, deadline):
    """Query the answered draws in turn, in batches between reference bursts.

    Runs until deadline, or once over the draws when deadline is None.
    Returns the raw and normalized per-query latencies and the number of
    answers that differed from the coverage pass.
    """
    todo = iter(answered) if deadline is None else itertools.cycle(answered)
    raw, norm, mismatches = [], [], 0
    exhausted = False
    while not exhausted and (deadline is None or time.perf_counter() < deadline):
        batch = []
        batch_end = time.perf_counter() + BATCH_S
        while time.perf_counter() < batch_end:
            item = next(todo, None)
            if item is None:
                exhausted = True
                break
            J, Jp, roots = item
            t0 = time.perf_counter()
            try:
                point = _one_cell(scanner, J, Jp, 1.0)
            except Exception:   # counted as a mismatch: the coverage pass answered it
                point = None
            batch.append(time.perf_counter() - t0)
            if point is None or point.error is not None or point.roots != roots:
                mismatches += 1
        factor = clock.close()
        raw.extend(batch)
        norm.extend(x * factor for x in batch)
    return raw, norm, mismatches


def queries(seed: int, seconds: float, coverage: int, span_dir: str | None) -> int:
    import warnings

    import ivtree.scanner as scanner

    import failures
    import hostref

    tracer = None
    if span_dir is not None:
        import tracing
        tracer = tracing.install(span_dir)
    # overflow warnings from numpy inside failing cells; their cells are classified
    warnings.simplefilter("ignore", RuntimeWarning)

    results, answered = [], []
    for J, Jp in draws(seed, coverage):
        try:
            point = _one_cell(scanner, J, Jp, 1.0)
        except Exception as exc:   # classified; one failing cell must not stop the run
            results.append([J, Jp, failures.raised_kind(exc), []])
            continue
        if point.error is not None:
            results.append([J, Jp, failures.error_kind(point.error), []])
        else:
            results.append([J, Jp, "answered", list(point.roots)])
            answered.append((J, Jp, point.roots))

    raw, norm, mismatches, refs = [], [], 0, []
    if answered:
        clock = hostref.HostClock()
        deadline = None if tracer else time.perf_counter() + seconds
        raw, norm, mismatches = _closed_loop(scanner, clock, answered, deadline)
        refs = clock.refs
    if tracer:
        tracer.close()
    print(json.dumps({"coverage": results, "raw": raw, "norm": norm,
                      "mismatches": mismatches, "refs": refs}))
    return 0


def cli(span_dir: str, argv: list[str]) -> int:
    import ivtree.cli

    if span_dir == "-":
        return ivtree.cli.main(argv)
    import tracing

    tracer = tracing.install(span_dir)
    try:
        return ivtree.cli.main(argv)
    finally:
        tracer.close()


def _peak_rss_kb() -> int:
    hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass   # ru_maxrss also counts the parent's memory from before exec
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    try:
        if mode == "cli" and len(argv) >= 2:
            return cli(argv[1], argv[2:])
        if mode == "setup" and len(argv) == 1:
            return setup()
        if mode == "queries" and len(argv) in (4, 5):
            return queries(int(argv[1]), float(argv[2]), int(argv[3]),
                           argv[4] if len(argv) == 5 else None)
    finally:
        sys.stdout.flush()
        print(RSS_TAG, _peak_rss_kb(), file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
