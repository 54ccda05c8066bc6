"""Fixed points of the scalar map g and their stability, one cell at a time,
and the curve of g that marks them.  The solver and the cell rules live in
the scan kernel _solver."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._solver import regime, solve_fixed_points
from .model import CouplingParameters, TransferWeights, derive_weights


class FixedPointReport(NamedTuple):
    """Positive fixed points in ascending order with stability data.

    quartic_roots is kept for callers that read it; the solver leaves it
    empty (the companion-matrix route is a test-side oracle).
    """

    roots: tuple[float, ...]
    stability: tuple[str, ...]
    derivative: tuple[float, ...]
    count: int
    quartic_roots: tuple[float, ...] = ()


class ThresholdReport(NamedTuple):
    """Critical tangency data of g.

    x_crit_1, x_crit_2 solve c^2 d x^2 - 2c(d^2-2)x + d = 0 (real, positive
    only when d >= 2); eta_i = g(x_crit_i)/x_crit_i are the tangent slopes
    through the origin.
    """

    eta1: float | None
    eta2: float | None
    x_crit_1: float | None
    x_crit_2: float | None
    regime: str


def find_positive_fixed_points(w: TransferWeights) -> FixedPointReport:
    """All positive solutions of g(x) = x, ascending, with g' and stability."""
    return solve_fixed_points(w.c, w.d).report(0)


def critical_points(w: TransferWeights) -> ThresholdReport:
    """Tangency points and threshold slopes; regime label for the count rule.

    The tangency abscissas are real and positive only for d >= 2 (the
    discriminant (d^2-1)(d^2-4) is negative on 1 < d < 2, and for d < 1 both
    quadratic roots are negative), so below d = 2 nothing is solved.
    """
    eta1 = eta2 = x1 = x2 = None
    if w.d >= 2.0:
        batch = solve_fixed_points(w.c, w.d)
        eta1, eta2 = batch.eta[0].tolist()
        x1, x2 = batch.x_crit[0].tolist()
    return ThresholdReport(eta1=eta1, eta2=eta2, x_crit_1=x1, x_crit_2=x2, regime=regime(w.d))


class IterationResult(NamedTuple):
    trajectory: tuple[float, ...]
    limit: float
    converged: bool
    matched_root: float | None


def iterate_map(x0: float, w: TransferWeights, max_iter: int = 200,
                tol: float = 1e-12) -> IterationResult:
    """Iterate x -> g(x) from x0 and report the limit and its matching root.

    Stops when successive iterates differ by less than tol*max(1, x); a run
    that exhausts max_iter is reported as non-converged rather than raising.
    The limit is matched against the fixed points within 1e-6 relative.
    """
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValueError("x0 must be positive finite")
    from .recurrence import scalar_map_g
    traj = [float(x0)]
    x = float(x0)
    converged = False
    for _ in range(max_iter):
        x_next = scalar_map_g(x, w)
        traj.append(x_next)
        if abs(x_next - x) < tol * max(1.0, abs(x)):
            x = x_next
            converged = True
            break
        x = x_next
    matched = None
    for r in find_positive_fixed_points(w).roots:
        if abs(x - r) <= 1e-6 * max(1.0, r):
            matched = r
            break
    return IterationResult(trajectory=tuple(traj), limit=x,
                           converged=converged, matched_root=matched)


def emit_curve(params: CouplingParameters, x_range: tuple[float, float] = (1e-4, 1e4),
               samples: int = 400) -> list[tuple[float, float, float, bool]]:
    """Exactly `samples` rows of (x, g(x), g(x)-x, is_fixed_point).

    The x column is log-uniform over x_range, except that for each fixed
    point inside the range the nearest unused sample is snapped to the exact
    root and flagged, so the table always has `samples` rows and still marks
    every root it covers.  Roots outside x_range are not marked.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = x_range
    if not 0 < lo < hi < math.inf:
        raise ValueError("x_range must satisfy 0 < lo < hi < inf")
    from .recurrence import scalar_map_g

    w = derive_weights(params)
    log_xs = np.linspace(math.log(lo), math.log(hi), samples)
    xs = np.exp(log_xs)
    xs[0], xs[-1] = lo, hi
    marked = np.zeros(samples, dtype=bool)
    for r in find_positive_fixed_points(w).roots:
        if not (lo <= r <= hi):
            continue
        order = np.argsort(np.abs(log_xs - math.log(r)))
        slot = next((k for k in order if not marked[k]), None)
        if slot is not None:
            xs[slot] = r
            marked[slot] = True
    rows = []
    for x, m in zip(xs.tolist(), marked.tolist()):
        g = scalar_map_g(x, w)
        rows.append((x, g, g - x, m))
    rows.sort(key=lambda row: row[0])
    return rows


def emit_curve_csv(params: CouplingParameters, x_range: tuple[float, float] = (1e-4, 1e4),
                   samples: int = 400) -> str:
    """The rows of emit_curve as CSV, floats at 12 significant digits as in
    the grid CSV."""
    rows = [",".join((format(x, ".12g"), format(g, ".12g"), format(gap, ".12g"),
                      "true" if marker else "false"))
            for x, g, gap, marker in emit_curve(params, x_range, samples)]
    return "\n".join(["x,g,g_minus_x,is_fixed_point"] + rows) + "\n"
