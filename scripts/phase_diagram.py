"""Map the phase-transition region of the (J, Jp) plane at fixed T.

Scans a coupling grid, writes the full table to CSV, and prints a compact
text rendering where '#' marks cells with multiple fixed points (a phase
transition) and '.' marks unique-root cells.

    python3 scripts/phase_diagram.py
    python3 scripts/phase_diagram.py --T 2 --steps 41 --out /tmp/diagram.csv

An invalid grid or an --out path that cannot be opened or written exits 2
with one error line.
"""

import argparse

from ivtree import GridSpec, emit_csv, scan_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--j-range", type=float, nargs=2, default=(-3.0, 3.0),
                        metavar=("MIN", "MAX"))
    parser.add_argument("--jp-range", type=float, nargs=2, default=(-3.0, 7.0),
                        metavar=("MIN", "MAX"))
    parser.add_argument("--T", type=float, default=13.0)
    parser.add_argument("--steps", type=int, default=21, help="grid points per axis")
    parser.add_argument("--out", default="phase_diagram.csv")
    args = parser.parse_args()

    try:
        spec = GridSpec(j=(*args.j_range, args.steps),
                        jp=(*args.jp_range, args.steps),
                        t=(args.T, args.T, 1))
    except ValueError as exc:
        parser.error(str(exc))
    # --out is opened before the scan, so an unwritable path fails at once
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            points = scan_grid(spec)
            fh.write(emit_csv(points))
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror or exc}")

    by_cell = {(p.J, p.Jp): p for p in points}
    j_values = spec.j_values()
    jp_values = spec.jp_values()
    print(f"T = {args.T}; rows Jp = {jp_values[-1]:g} down to {jp_values[0]:g}, "
          f"columns J = {j_values[0]:g} to {j_values[-1]:g}")
    for jp in reversed(jp_values):
        cells = []
        for j in j_values:
            p = by_cell[(j, jp)]
            cells.append("!" if p.error else ("#" if p.phase_transition else "."))
        print("".join(cells))

    n_txn = sum(1 for p in points if p.phase_transition)
    n_err = sum(1 for p in points if p.error)
    print(f"{len(points)} cells: {n_txn} with a transition, {n_err} failed")
    print(f"table written to {args.out}")


if __name__ == "__main__":
    main()
