"""Compare the one-cell query time of two source trees of ivtree in one process.

Loads the ivtree package of each tree under its own name, checks on seeded
draws that both give the same PhasePoint (compared by repr, so every bit)
and the same bytes in the six FixedPointBatch arrays of
solve_fixed_points(c, d), which also hold the slopes, log-roots and
tangency points that no PhasePoint shows, then times one-cell scans of the
draws that both answer, the trees taking turns: each round queries every
draw on one tree and at once on the other, and the next round starts with
the other tree.  Separate processes of the same code can differ by more
than a 5-10 % change, so only the interleaved figures of one process are
compared.  The last lines give the median of the rounds' p50 and mean for
each tree, the number of rounds in which the new tree's p50 was lower, and
the quartiles of the old tree's p50 across rounds.

    python3 scripts/one_cell_ab.py OLD_SRC NEW_SRC
    python3 scripts/one_cell_ab.py ../parent/src src --draws 4000 --rounds 6

OLD_SRC and NEW_SRC are directories that hold an ivtree package.  The draws
are (J, Jp) at T = 1: even draws uniform on |.| <= 12, odd draws uniform
on |.| <= 354, the accepted box.
"""

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

# the FixedPointBatch arrays compared byte for byte
BATCH_FIELDS = ("found", "log_roots", "roots", "slopes", "x_crit", "eta")


def load_package(src: str, name: str):
    """The ivtree package in src, loaded as package name."""
    home = Path(src) / "ivtree"
    spec = importlib.util.spec_from_file_location(
        name, home / "__init__.py", submodule_search_locations=[str(home)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def draws(seed: int, n: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [(rng.uniform(-r, r), rng.uniform(-r, r))
            for r in (12.0 if i % 2 == 0 else 354.0 for i in range(n))]


def one_cell(scanner, J: float, Jp: float):
    return scanner.scan_grid(scanner.GridSpec((J, J, 1), (Jp, Jp, 1), (1.0, 1.0, 1)))[0]


def batch_bytes(package, J: float, Jp: float) -> bytes:
    """The bytes of the FixedPointBatch arrays of the draw's weights at T = 1."""
    w = package.derive_weights(package.couplings(J, Jp, 1.0))
    batch = package.solve_fixed_points(w.c, w.d)
    return b"".join(np.ascontiguousarray(getattr(batch, name)).tobytes()
                    for name in BATCH_FIELDS)


def sweep(scanners, cells) -> list[list[float]]:
    """Seconds of each one-cell query over cells, one list per scanner; the
    scanners take turns on each cell, so a drift of the host's speed hits
    them alike."""
    clock = time.perf_counter
    times = [[] for _ in scanners]
    for J, Jp in cells:
        for scanner, out in zip(scanners, times):
            t0 = clock()
            one_cell(scanner, J, Jp)
            out.append(clock() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", metavar="OLD_SRC")
    parser.add_argument("new_src", metavar="NEW_SRC")
    parser.add_argument("--draws", type=int, default=2000, metavar="N")
    parser.add_argument("--rounds", type=int, default=6, metavar="R")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be >= 1")
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")
    for src in (args.old_src, args.new_src):
        if not (Path(src) / "ivtree" / "__init__.py").is_file():
            parser.error(f"no ivtree package in {src}")

    packages = {"old": load_package(args.old_src, "ivtree_ab_old"),
                "new": load_package(args.new_src, "ivtree_ab_new")}
    trees = {name: importlib.import_module(f"{package.__name__}.scanner")
             for name, package in packages.items()}
    # numpy warns of overflow inside failing cells; those cells carry their error
    warnings.simplefilter("ignore", RuntimeWarning)
    answered = []
    for J, Jp in draws(args.seed, args.draws):
        old, new = (repr(one_cell(scanner, J, Jp)) for scanner in trees.values())
        if old != new:
            print(f"different answers at J={J!r}, Jp={Jp!r}:\n  old {old}\n  new {new}",
                  file=sys.stderr)
            return 1
        old_bytes, new_bytes = (batch_bytes(package, J, Jp) for package in packages.values())
        if old_bytes != new_bytes:
            print(f"different solver arrays at J={J!r}, Jp={Jp!r}", file=sys.stderr)
            return 1
        if "error=None" in old:
            answered.append((J, Jp))
    print(f"{args.draws} draws, equal PhasePoints and solver arrays; "
          f"{len(answered)} answered, timed")
    if not answered:
        return 0

    p50s = {name: [] for name in trees}
    means = {name: [] for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        gc.collect()
        for name, times in zip(order, sweep([trees[name] for name in order], answered)):
            p50s[name].append(statistics.median(times) * 1e6)
            means[name].append(statistics.fmean(times) * 1e6)
        print(f"round {r + 1}: " + "   ".join(
            f"{name} p50 {p50s[name][-1]:7.1f} us mean {means[name][-1]:7.1f} us"
            for name in trees))
    old_p50, new_p50 = (statistics.median(p50s[name]) for name in trees)
    old_mean, new_mean = (statistics.median(means[name]) for name in trees)
    print(f"median of rounds: old p50 {old_p50:.1f} us, new p50 {new_p50:.1f} us "
          f"({new_p50 / old_p50 - 1:+.1%}); old mean {old_mean:.1f} us, "
          f"new mean {new_mean:.1f} us ({new_mean / old_mean - 1:+.1%})")
    # what a claimed gain must show: wins in nine tenths of the rounds, and a
    # median difference beyond the old tree's spread between its quartiles
    q1, _, q3 = statistics.quantiles(p50s["old"], n=4)
    wins = sum(new < old for old, new in zip(p50s["old"], p50s["new"]))
    print(f"new p50 lower in {wins} of {args.rounds} rounds; "
          f"old p50 quartiles {q1:.1f} to {q3:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
