"""Fixed points of the scalar map g, their stability, and count prediction.

Positive fixed points of g(x) = ((1+cdx)/(d+cx))^3 are found in t = log x,
where g(x) = x reads G(t) = 0 with

    G(t)  = log g(e^t) - t = 3 (log(1 + e^(lc+ld+t)) - log(e^ld + e^(lc+t))) - t
    G'(t) = 3 (sigma(lc+ld+t) - sigma(lc-ld+t)) - 1

for lc = log c, ld = log d and the logistic function sigma.  Neither form
builds a power of c or d, so every pair of weights the model accepts is safe.

The sigmoid difference peaks at (d-1)/(d+1), so for d <= 2 G is strictly
decreasing and has one zero; it lies in [-3|ld|, 3|ld|] because every fixed
point lies between g(0) = d^-3 and g(inf) = d^3.  For d > 2, G' vanishes at
exactly two abscissas t_1 < t_2, the logs of the tangency points x_crit_i
(the roots of c^2 d x^2 - 2c(d^2-2)x + d = 0), and G(t_i) = log eta_i for the
slopes eta_i = g(x_crit_i)/x_crit_i of the tangent lines through the origin.
G falls, rises, then falls, so [-3 ld, t_1], [t_1, t_2] and [t_2, 3 ld] hold
at most one zero each, and the signs of G(t_1), G(t_2) give the count: three
exactly when eta_1 < 1 < eta_2.  A tangency point with |G(t_i)| within
_TANGENCY_TOL is itself a (double) root, and the count is two.

Each bracket is solved by Newton's method in t, started at the zero of the
piecewise-linear limit of G and falling back to bisection whenever a step
would leave the bracket or fails to halve the previous move.  The x-quartic
and the closed-form eta are not evaluated here; they live on the test side
as independent checks.  solve_fixed_points solves a whole batch of cells as
arrays; every root stops at its own convergence test, so its value does not
depend on which other cells share the batch.  find_positive_fixed_points
and critical_points (which solves only at d >= 2) are batches of one, so
the code counts numpy calls, not elements: each costs a microsecond or so
on a one-cell batch.  A batch in which every cell has d >= 2 computes its
tangency data on views, not gathered copies; a batch in which no cell has
d > 2 solves every cell's one bracket directly, with no per-slot masks,
brackets or gathers; and the Newton loop allocates its result only once a
root outlives its first step.
These shortcuts test the batch's data, not its size, and give the same
arrays.  At a fixed point g'(x*) = 3 (sigma(lc+ld+t) - sigma(lc-ld+t)),
which never overflows.

root_errors, stability_codes and regime are the one home of three rules of
a cell's classification: which found roots make it an error, the stability
label of each slope, and its regime (three roots need d > 2).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .model import TransferWeights

STABILITY_TOL = 1e-9

# |log g(x) - log x| at a tangency point within this counts as a double root
_TANGENCY_TOL = 1e-10

# a Newton iterate has converged once its step is below this share of max(1, |t|)
_NEWTON_RTOL = 1e-12

# bisection alone narrows the widest bracket (about 2 * 2124) to the tolerance
# in under 70 steps
_MAX_STEPS = 100


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


# lcd = lc + _PLUS_MINUS * ld stacks lc + ld over lc - ld
_PLUS_MINUS = np.array([[1.0], [-1.0]])

# +1 where G falls on a root slot's bracket, -1 where it rises
_SLOT_SIGN = np.array([1.0, -1.0, 1.0])


def _gap(z, t, ld):
    """G(t) from z = lcd + t.  Since log(e^ld + e^(lc+t)) =
    ld + log(1 + e^(lc-ld+t)), one logaddexp call takes both logs."""
    l = np.logaddexp(0.0, z)
    return 3.0 * (l[0] - l[1] - ld) - t


def _slope(z):
    """d log g / d log x = G'(t) + 1 from z = lcd + t; it is g'(x) at a fixed
    point.  sigma(z) = (1 + tanh(z/2))/2 cannot overflow."""
    h = np.tanh(0.5 * z)
    return 1.5 * (h[0] - h[1])


def _model_root(lc, ld, lpd, lo, hi, sign):
    """Zero in [lo, hi] of the piecewise-linear limit of G, a Newton start.

    With log(e^a + e^b) replaced by max(a, b), G becomes
    3 max(0, lc+ld+t) - 3 max(ld, lc+t) - t: linear between the kinks
    -lc -+ |ld|, and within 6 log 2 of G.  Far from the kinks G is this
    line to rounding, so a start on the right piece converges at once.
    lpd is lc + ld; sign is +1 where G falls on the bracket and -1 where
    it rises.
    """
    # model values over the points lo, lo, the kinks clipped to the bracket,
    # hi; lo comes twice so that the point before row k + 1 is row k
    vp = np.empty((2, 5, lo.size))
    v, pts = vp
    pts[:2], pts[4] = lo, hi
    mid = pts[2:4]
    np.subtract(-lc, _PLUS_MINUS * np.abs(ld), out=mid)
    np.minimum(np.maximum(mid, lo, out=mid), hi, out=mid)
    np.multiply(sign, 3.0 * np.maximum(0.0, lpd + pts) - 3.0 * np.maximum(ld, lc + pts) - pts,
                out=v)
    # first point past lo where sign * model <= 0; the zero is on the segment before it
    k = (v[1:] <= 0.0).argmax(axis=0)
    k[v[4] > 0.0] = 3
    # the zero of the line through each of the four segments, then segment k's
    va, vb = v[:4], v[1:]
    frac = np.where(va > vb, va / (va - vb), 0.0)
    return k.choose(pts[:4] + frac * (pts[1:] - pts[:4]))


def _newton(lcd, ld, lo, hi, sign, t):
    """Zeros of G in the brackets [lo, hi], one per entry, as log x.

    sign is +1 where G falls on the bracket and -1 where it rises.  An
    iterate has converged when its Newton step is below
    _NEWTON_RTOL * max(1, |t|); that test comes first, because a converged
    iterate may sit on the bracket's edge, and once every open entry has
    passed it the call returns without updating the brackets.  A Newton
    step is taken when it stays in the bracket (up to the tolerance; it is
    then clipped) and is at most half the previous move; otherwise the
    bracket is bisected, so the iteration cannot cycle.  Converged entries
    leave the active set at once.  Entries still open after _MAX_STEPS come
    back as NaN.
    """
    # out and todo (out's entry for each open entry) are made once an entry
    # outlives its first step; until then the open entries are all of them
    out = todo = None
    prev = hi - lo
    for _ in range(_MAX_STEPS):
        z = lcd + t
        f = _gap(z, t, ld)
        step = f / (_slope(z) - 1.0)
        size = np.abs(step)
        tol = _NEWTON_RTOL * np.maximum(1.0, np.abs(t))
        flat = f == 0.0
        done = (size <= tol) | flat
        newton_t = t - step
        if np.count_nonzero(done) == t.size:
            if out is None:
                return np.where(flat, t, newton_t)
            out[todo] = np.where(flat, t, newton_t)
            return out
        right = sign * f > 0.0          # the zero lies right of t
        lo = np.where(right, t, lo)
        hi = np.where(right, hi, t)
        width = hi - lo
        newton = (newton_t >= lo - tol) & (newton_t <= hi + tol) & (size <= 0.5 * prev)
        prev = np.where(newton, size, 0.5 * width)
        nxt = np.where(newton, np.minimum(np.maximum(newton_t, lo), hi), 0.5 * (lo + hi))
        closed = width <= tol
        stop = done | closed
        stopped = np.count_nonzero(stop)
        if not stopped:
            t = nxt
            continue
        if out is None:
            out = np.empty(t.shape)
            out.fill(np.nan)
            todo = np.arange(t.size)
        out[todo[closed]] = nxt[closed]
        out[todo[done]] = np.where(flat, t, newton_t)[done]
        if stopped == t.size:
            return out
        keep = ~stop
        lcd = lcd[:, keep]
        todo, ld, lo, hi, sign, prev, t = (
            a[keep] for a in (todo, ld, lo, hi, sign, prev, nxt))
    if out is None:
        return np.full(t.shape, np.nan)
    return out


def root_errors(found, log_roots, roots) -> dict[int, ArithmeticError]:
    """Why the fixed points of a cell cannot be reported, as {row: error}.

    Takes rows of three slots.  A row is listed when a found slot holds a
    root that is not a normal double, and its error names the first such
    slot: FloatingPointError when its iteration did not converge (t is NaN,
    and so is x), OverflowError when x = e^t is outside the double range.
    """
    bad = found & ~((roots >= sys.float_info.min) & (roots <= sys.float_info.max))
    if not np.count_nonzero(bad):
        return {}
    rows = bad.any(axis=1).nonzero()[0]
    errors = {}
    for i, t in zip(rows.tolist(), log_roots[rows, bad[rows].argmax(axis=1)].tolist()):
        if math.isnan(t):
            errors[i] = FloatingPointError("Newton iteration for a fixed point did not converge")
        else:
            errors[i] = OverflowError(f"fixed point exp({t:.6g}) is outside the double range")
    return errors


class FixedPointBatch(NamedTuple):
    """Fixed points and tangency data of a batch of cells, as arrays.

    Row k describes cell k.  There are three root slots per cell (left of
    x_crit_1, between the tangency points, right of x_crit_2; a unique root
    uses the first), and found marks the occupied ones.  log_roots holds
    their logs (NaN in a found slot: the iteration did not converge), roots
    their exponentials and slopes g' there.  x_crit and eta are NaN where
    d < 2; all exponentials saturate at 0 and inf.
    """

    found: np.ndarray
    log_roots: np.ndarray
    roots: np.ndarray
    slopes: np.ndarray
    x_crit: np.ndarray
    eta: np.ndarray

    def report(self, k: int) -> FixedPointReport:
        """Fixed points of cell k.

        Raises OverflowError when a root is not a normal double, and
        FloatingPointError when its iteration did not converge.
        """
        row = np.s_[k, None]    # row k as a block of one row
        error = root_errors(self.found[row], self.log_roots[row], self.roots[row]).get(0)
        if error is not None:
            raise error
        found = self.found[k]
        slopes = self.slopes[k][found]
        labels = [STABILITY_LABELS[s] for s in stability_codes(slopes).tolist()]
        return FixedPointReport(roots=tuple(self.roots[k][found].tolist()), stability=tuple(labels),
                                derivative=tuple(slopes.tolist()), count=len(labels))


def solve_fixed_points(c, d) -> FixedPointBatch:
    """Positive fixed points of g for every cell of the weight arrays c, d."""
    c = np.array(c, dtype=float, ndmin=1)
    d = np.array(d, dtype=float, ndmin=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # NaN: empty slot
        return _solve(c, d)


def _solve(c, d):
    """solve_fixed_points on 1-d arrays, inside its errstate.

    The tangency data (q, the square root, the log and G(t_i)) is computed
    only for the cells with d >= 2, on views when that is every cell, and is
    NaN elsewhere.  When no cell has d > 2, each cell's one bracket
    [-3|ld|, 3|ld|], where G falls, is solved without per-slot masks or
    gathers.
    """
    n = c.size
    lc, ld = np.log(c), np.log(d)
    lcd = lc + _PLUS_MINUS * ld

    # x_crit_2 = (d/c)(1 - 2q + sqrt((1-q)(1-4q))), q = 1/d^2, and
    # x_crit_1 = 1/(c^2 x_crit_2), since the product of the two roots is
    # 1/c^2 (the textbook difference cancels to 0 for d >~ e^18); tangency
    # holds their logs over log eta_1, log eta_2
    tangency = np.empty((2, 2, n))
    real = (d >= 2.0).nonzero()[0]
    if real.size < n:
        tangency.fill(np.nan)
    if real.size:
        pick = slice(None) if real.size == n else real    # a view when every cell is real
        lct, ldt, q = lc[pick], ld[pick], (1.0 / d[pick]) ** 2
        t2 = ldt - lct + np.log(1.0 - 2.0 * q + np.sqrt((1.0 - q) * (1.0 - 4.0 * q)))
        crit = np.array((-2.0 * lct - t2, t2))
        tangency[:, :, pick] = crit, _gap(lcd[:, None, pick] + crit, crit, ldt)
    log_crit, log_eta = tangency

    multi = d > 2.0
    log_roots = np.empty((n, 3))
    log_roots.fill(np.nan)
    span = 3.0 * np.abs(ld)
    if not np.count_nonzero(multi):
        # one root per cell, in the first slot's bracket [-span, span]
        found = np.zeros((n, 3), dtype=bool)
        found[:, 0] = True
        sign = np.empty(n)
        sign.fill(1.0)
        lo = -span
        log_roots[:, 0] = _newton(lcd, ld, lo, span, sign,
                                  _model_root(lc, ld, lcd[0], lo, span, sign))
    else:
        left = multi & (log_eta[0] < -_TANGENCY_TOL)     # G(t_1) < 0: a zero left of t_1
        right = multi & (log_eta[1] > _TANGENCY_TOL)     # G(t_2) > 0: a zero right of t_2
        found = np.empty((n, 3), dtype=bool)
        found[:, 0] = ~multi | left
        found[:, 1] = left & right
        found[:, 2] = right
        # slot s brackets [edge[s], edge[s + 1]]; a unique root's is [-span, span]
        edge = np.empty((4, n))
        edge[1:3] = np.where(multi, log_crit, span)
        np.negative(span, out=edge[0])
        np.minimum(edge[0], edge[1], out=edge[0], where=multi)
        np.maximum(span, edge[2], out=edge[3])
        cells, slot = found.nonzero()
        lo, hi, sign = edge[slot, cells], edge[1:][slot, cells], _SLOT_SIGN[slot]
        lcds, lds = lcd[:, cells], ld[cells]
        log_roots[cells, slot] = _newton(
            lcds, lds, lo, hi, sign, _model_root(lc[cells], lds, lcds[0], lo, hi, sign))

        # a tangency point within _TANGENCY_TOL of G = 0 is itself a double root
        tangent = (multi & (np.abs(log_eta) <= _TANGENCY_TOL)).T
        np.copyto(log_roots[:, 0::2], log_crit.T, where=tangent)
        found[:, 0::2] |= tangent
    x_crit, eta = np.exp(tangency)
    return FixedPointBatch(found=found, log_roots=log_roots, roots=np.exp(log_roots),
                           slopes=_slope(lcd[:, :, None] + log_roots), x_crit=x_crit.T, eta=eta.T)


# what stability_codes indexes
STABILITY_LABELS = ("stable", "marginal", "unstable")

# |g'| below the first edge is stable, from the second (the double after
# 1 + STABILITY_TOL) on unstable, marginal in between
_STABILITY_EDGES = np.array([1.0 - STABILITY_TOL, math.nextafter(1.0 + STABILITY_TOL, math.inf)])


def stability_codes(dg) -> np.ndarray:
    """Index into STABILITY_LABELS of each finite slope g'(x*): stable when
    |g'| is below 1, unstable above, marginal within STABILITY_TOL of 1."""
    return _STABILITY_EDGES.searchsorted(np.abs(dg), side="right")


def regime(d: float) -> str:
    """The count rule's regime of a cell with weight d: three fixed points
    are possible only for d > 2."""
    return "multi-capable" if d > 2.0 else "unique"


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
    if not w.d < 2.0:   # a NaN d is solved too, and gives NaN thresholds
        batch = solve_fixed_points(w.c, w.d)
        eta1, eta2 = batch.eta[0].tolist()
        x1, x2 = batch.x_crit[0].tolist()
    return ThresholdReport(eta1=eta1, eta2=eta2, x_crit_1=x1, x_crit_2=x2, regime=regime(w.d))


def predict_count(w: TransferWeights) -> tuple[int, str]:
    """Fixed-point count from the threshold rule, with the regime used.

    d < 1 gives one (decreasing map); d > 2 gives three when eta_1 < 1 < eta_2,
    two at tangency (the solver's |log eta_i| <= _TANGENCY_TOL), one otherwise.
    In the band 1 <= d <= 2 no closed-form rule applies and the direct root
    search decides (on 1 < d < 2 the negative discriminant already forbids
    tangencies).
    """
    d = w.d
    if d < 1.0:
        return 1, "unique: d < 1, g strictly decreasing"
    if d > 2.0:
        th = critical_points(w)
        # an eta saturated at 0 is no tangency (and math.log(0) raises)
        if any(eta > 0.0 and abs(math.log(eta)) <= _TANGENCY_TOL for eta in (th.eta1, th.eta2)):
            return 2, "tangency: |log eta| <= 1e-10 for an eta threshold"
        if th.eta1 < 1.0 < th.eta2:
            return 3, "multi-capable: eta1 < 1 < eta2"
        return 1, "multi-capable regime but 1 outside (eta1, eta2)"
    count = find_positive_fixed_points(w).count
    return count, "intermediate band 1 <= d <= 2: count from direct root search"


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
