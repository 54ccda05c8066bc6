"""Command-line scanner for (J, Jp, T) grids.

Examples:
    ivtree --J -1.7 --Jp 6.5 --T 13
    ivtree --J=-3:3:21 --Jp=-3:7:21 --T 13 --out phase.csv
    ivtree --J -1.7 --Jp 6.5 --T 13 --curve --samples 500
    ivtree --J -1.7 --Jp 6.5 --T 13 --check-consistency --format jsonl

Range arguments take min:max:steps; values starting with a minus sign must
use the --J=-3:3:21 form so they are not mistaken for flags.  Exit code is 0
on success and 2 for an invalid grid specification, a --curve cell whose
curve cannot be tabulated in double precision, --curve together with
--format jsonl or --check-consistency, or an --out path that cannot be
opened or written.  Every check of the grid runs when its GridSpec is
built, ahead of the option checks here.  --out is opened only once the
input has passed every check (for --curve, once the curve is tabulated), so
a run that exits 2 creates or truncates no file, and a grid scan with an
unwritable --out exits before it scans.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .model import couplings
from .scanner import GridSpec, emit_csv, emit_curve_csv, emit_jsonl, scan_grid


def _parse_axis(name: str, text: str) -> tuple[float, float, int]:
    try:
        if ":" in text:
            lo_s, hi_s, steps_s = text.split(":")
            return float(lo_s), float(hi_s), int(steps_s)
        value = float(text)
        return value, value, 1
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--{name} expects a number or min:max:steps, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivtree",
        description="Scan coupling/temperature grids for phase transitions "
                    "of the competing-interaction Ising model on the order-3 tree.",
    )
    parser.add_argument("--J", required=True, metavar="SPEC",
                        help="nearest-neighbor coupling: value or min:max:steps")
    parser.add_argument("--Jp", required=True, metavar="SPEC",
                        help="prolonged next-nearest-neighbor coupling: value or min:max:steps")
    parser.add_argument("--T", required=True, metavar="SPEC",
                        help="temperature: value or min:max:steps (cells at 0 are dropped)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="output format for grid scans (default csv)")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output path, - for stdout (default)")
    parser.add_argument("--curve", action="store_true",
                        help="emit the (x, g(x), g(x)-x) table for a single-point grid")
    parser.add_argument("--samples", type=int, default=400, metavar="N",
                        help="curve sample count (default 400)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="accepted for compatibility and ignored: every scan "
                             "runs in one process (must be >= 1)")
    parser.add_argument("--check-consistency", action="store_true",
                        help="run the depth-2 exact marginalization check at every "
                             "fixed point and add a residual column")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        spec = GridSpec(
            j=_parse_axis("J", args.J),
            jp=_parse_axis("Jp", args.Jp),
            t=_parse_axis("T", args.T),
        )
    except (argparse.ArgumentTypeError, ValueError) as exc:
        parser.error(str(exc))  # exits with code 2

    if args.samples < 2:
        parser.error("--samples must be >= 2")
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    if args.curve:
        if not spec.is_singleton():
            parser.error("--curve requires single values for J, Jp and T")
        if args.format != "csv" or args.check_consistency:
            parser.error("--curve writes CSV only and takes neither "
                         "--format jsonl nor --check-consistency")
        params = couplings(spec.j[0], spec.jp[0], spec.t[0])
        try:
            text = emit_curve_csv(params, samples=args.samples)
        except ArithmeticError as exc:   # a weight or fixed point outside the double range
            parser.error(f"--curve cannot tabulate this cell: {exc}")
        with _output(parser, args.out) as fh:
            fh.write(text)
        return 0

    with _output(parser, args.out) as fh:
        table = scan_grid(spec, workers=args.workers,
                          check_consistency=args.check_consistency)
        fh.write((emit_jsonl if args.format == "jsonl" else emit_csv)(table))
    return 0


@contextlib.contextmanager
def _output(parser: argparse.ArgumentParser, path: str):
    """The --out stream (stdout for -); failing to open or write it exits 2
    with one line."""
    try:
        if path == "-":
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
    except OSError as exc:
        if path == "-":
            # what is left in stdout's buffer would fail again, with a
            # second message, when the interpreter flushes it at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        parser.error(f"--out {path}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
