"""Compare the wall time of one ivtree command line in two source trees,
each run in a fresh process.

Checks first that both trees give the same exit code, the same stdout
bytes and the same stderr bytes for ARGV, then runs `python -m ivtree ARGV`
from each tree in turn, its output discarded, the first tree of a round
alternating, each run pinned to one CPU where the platform allows it and
with bytecode writing off, so a checkout without __pycache__ compiles its
sources in every run, as a fresh checkout does.
It prints each tree's median, the old tree's quartiles, the median paired
difference (new minus old), its quartiles and the number of rounds that the
new tree won.  A fresh process pays the interpreter's start-up, numpy's
import and the exit, so a change to any of those shows here and not in the
in-process figures of one_cell_ab.py.

    python3 scripts/cli_ab.py OLD_ROOT NEW_ROOT -- ARGV...
    python3 scripts/cli_ab.py ../parent . --rounds 40 -- --J=-3:3:51 --Jp=-3:7:51 --T 13

OLD_ROOT and NEW_ROOT are checkouts: each holds the package in src/ivtree.
"""

import argparse
import functools
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def child(root: str, argv: list[str], output) -> subprocess.CompletedProcess:
    """Run `python -m ivtree argv` with root's sources, bytecode writing off;
    output (PIPE or DEVNULL) takes both stdout and stderr."""
    # safe path: the working directory must not shadow root's package
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONSAFEPATH="1")
    pin = None
    if hasattr(os, "sched_setaffinity"):
        pin = functools.partial(os.sched_setaffinity, 0, {max(os.sched_getaffinity(0))})
    return subprocess.run([sys.executable, "-m", "ivtree", *argv], stdout=output,
                          stderr=output, env=env, preexec_fn=pin)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # everything after the first -- is the command line under test
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, ivtree_argv = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s [--rounds R] OLD_ROOT NEW_ROOT -- ARGV...")
    parser.add_argument("old_root", metavar="OLD_ROOT")
    parser.add_argument("new_root", metavar="NEW_ROOT")
    parser.add_argument("--rounds", type=int, default=20, metavar="R")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")
    if not ivtree_argv:
        parser.error("no ivtree arguments after --")
    for root in (args.old_root, args.new_root):
        if not (Path(root) / "src" / "ivtree" / "__init__.py").is_file():
            parser.error(f"no ivtree package in {Path(root) / 'src'}")
    roots = {"old": args.old_root, "new": args.new_root}

    outputs = {name: child(root, ivtree_argv, subprocess.PIPE) for name, root in roots.items()}
    old, new = outputs.values()
    if (old.returncode, old.stdout, old.stderr) != (new.returncode, new.stdout, new.stderr):
        print(f"different output: old exit {old.returncode}, {len(old.stdout)} bytes, "
              f"{len(old.stderr)} on stderr; new exit {new.returncode}, "
              f"{len(new.stdout)} bytes, {len(new.stderr)} on stderr", file=sys.stderr)
        return 1
    print(f"equal output: exit {old.returncode}, {len(old.stdout)} bytes, "
          f"sha256 {hashlib.sha256(old.stdout).hexdigest()[:16]}, "
          f"{len(old.stderr)} on stderr")

    times = {name: [] for name in roots}
    for r in range(args.rounds):
        for name in (("old", "new") if r % 2 == 0 else ("new", "old")):
            t0 = time.perf_counter()
            child(roots[name], ivtree_argv, subprocess.DEVNULL)
            times[name].append((time.perf_counter() - t0) * 1e3)
    diffs = [n - o for o, n in zip(times["old"], times["new"])]
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    old_q1, _, old_q3 = statistics.quantiles(times["old"], n=4)
    print(f"{args.rounds} rounds: old median {statistics.median(times['old']):.1f} ms "
          f"(quartiles {old_q1:.1f} to {old_q3:.1f} ms), "
          f"new median {statistics.median(times['new']):.1f} ms")
    print(f"new - old: median {statistics.median(diffs):+.2f} ms "
          f"(quartiles {q1:+.2f} to {q3:+.2f}); new faster in "
          f"{sum(d < 0 for d in diffs)} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
