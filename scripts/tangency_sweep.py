"""Walk the map through a tangency: root count 3 -> 2 -> 1 as c crosses c*.

At fixed d > 2 the lower tangent slope eta1 is linear in c, so the critical
amplitude where two roots collide is c* = c0 / eta1(c0).  The sweep prints
the root inventory on both sides of c* and the slope of g at the collision
point, which sits at 1 to machine precision.

    python3 scripts/tangency_sweep.py
    python3 scripts/tangency_sweep.py --d 3.2 --span 0.05 --points 9
"""

import argparse
import math

import numpy as np

from ivtree import TransferWeights, critical_points, find_positive_fixed_points


def sweep(c_star, d, span, points):
    for c in np.linspace(c_star * (1 - span), c_star * (1 + span), points):
        w = TransferWeights(float(c), d)
        rep = find_positive_fixed_points(w)
        eta1 = critical_points(w).eta1
        roots = " ".join(f"{r:.6g}({s})" for r, s in zip(rep.roots, rep.stability))
        print(f"  c = {c:.9g}  eta1 = {eta1:.9f}  count = {rep.count}  {roots}")

    w = TransferWeights(c_star, d)
    rep = find_positive_fixed_points(w)
    collision = [(r, dv) for r, s, dv in zip(rep.roots, rep.stability, rep.derivative)
                 if s == "marginal"]
    for x, slope in collision:
        print(f"at c*: collision root x = {x:.12g} with g'(x) - 1 = {slope - 1:.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=float, default=2.5, help="fixed d > 2")
    parser.add_argument("--span", type=float, default=0.02,
                        help="relative half-width of the sweep around c*")
    parser.add_argument("--points", type=int, default=7)
    args = parser.parse_args()
    if not 2.0 < args.d < math.inf:
        parser.error("--d must be finite and exceed 2 for a tangency to exist")
    if not 0.0 <= args.span < 1.0:
        parser.error("--span must be in [0, 1)")
    if args.points < 0:
        parser.error("--points must be nonnegative")

    probe = critical_points(TransferWeights(1.0, args.d))
    # eta1 saturates to 0 where c* = 1/eta1 leaves the double range
    c_star = 1.0 / probe.eta1 if probe.eta1 > 0.0 else math.inf
    if not c_star * (1 + args.span) < math.inf:
        parser.error(f"c* at d = {args.d:g} lies outside the double range")
    print(f"d = {args.d}: c* = {c_star:.15g}")
    try:
        sweep(c_star, args.d, args.span, args.points)
    except OverflowError as exc:   # a root outside the double range
        parser.error(str(exc))


if __name__ == "__main__":
    main()
