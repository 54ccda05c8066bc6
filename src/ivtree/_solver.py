"""The kernel of a grid scan: a scan loads no other layer but _check.

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
would leave the bracket or fails to halve the previous move.  No quartic
and no closed-form eta is evaluated here: the tests check the roots against
40-digit references and eta against its closed form.  solve_fixed_points
solves a whole batch of cells as arrays; every root stops at its own
convergence test, so its value does not depend on which other cells share
the batch.  find_positive_fixed_points and critical_points are batches of
one, so the code counts numpy calls, not elements: each costs a
microsecond or so on a one-cell batch.  Scalar operands are module-level
0-d float64 arrays, because numpy converts a Python float operand on every
call to the same double, and errstate wraps _solve as a decorator.  The
special cases give the arrays of the general path, and each stays because
a one-cell query (a point query or a library call) is slower without it,
as timed with scripts/one_cell_ab.py: _solve's two shortcuts for a batch
below d = 2, root_errors' early return, and the float path.  A batch of one
cell, and only such a batch, computes its Newton starts and runs its
Newton loop on Python floats instead, one root slot at a time: the same
IEEE operations with no numpy call for the start instead of about 25,
and about two a step instead of 25.  The tangency setup and the brackets
stay on arrays for every batch.  numpy still takes the logaddexp and tanh
of each step, because math.tanh and math.exp differ from numpy's in the
last bit on about 20 % and 5 % of inputs uniform on [-20, 20].  Batches of
two or more cells keep the array loop: a Python loop over the thousands of
cells of a scan chunk would be slower.
At a fixed point g'(x*) = 3 (sigma(lc+ld+t) - sigma(lc-ld+t)), which never
overflows.

root_errors, stability_codes and regime are the one home of three rules of
a cell's classification: which found roots make it an error, the stability
label of each slope, and its regime (three roots need d > 2); so are
coupling_weight of the weights, scalar_field_h of a root's field and
CheckedRecord of the checked records.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

STABILITY_TOL = 1e-9

# |log g(x) - log x| at a tangency point within this counts as a double root
_TANGENCY_TOL = 1e-10

# a Newton iterate has converged once its step is below this share of max(1, |t|)
_NEWTON_RTOL = 1e-12

# bisection alone narrows the widest bracket (about 2 * 2124) to the tolerance
# in under 70 steps
_MAX_STEPS = 100

# largest |log weight| that still exponentiates to a finite double (c = a^2
# needs 2*beta*J <= log(DBL_MAX) ~ 709.8)
_MAX_LOG_WEIGHT = 354.0


class CheckedRecord:
    """Base of a record whose __new__ checks its values: _make, and with it
    _replace, builds the record through __new__, so a copy is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def coupling_weight(name: str, log_weight: float) -> float:
    """Squared weight (e^log_weight)^2 for log_weight = beta * coupling: c
    for name "J", d for "Jp".

    Raises OverflowError when the square would not fit in a double, or when
    log_weight is NaN (beta = inf at a subnormal T times a zero coupling).
    derive_weights and the grid scanner both go through here, so a scan's
    weights are bit-for-bit those of derive_weights.
    """
    if not abs(log_weight) <= _MAX_LOG_WEIGHT:
        raise OverflowError(
            f"|beta*{name}| = {abs(log_weight):.6g} exceeds the representable range"
        )
    a = math.exp(log_weight)
    return a * a


def scalar_field_h(t):
    """h_1..h_8 of the field encoded by x = e^t: the corners (h_1, h_4, h_5,
    h_8) = (2.25 t, 0.75 t, 0.75 t, 2.25 t), and each inner component from
    the cube identities 3h_2 = h_4 - 2h_1 and 3h_3 = h_1 - 2h_4.

    t may be a float or an array; the arithmetic is elementwise, so every
    entry has the bits of the float case.
    """
    # h_1 = ln v_1^3 = (9/4) ln x,  h_4 = ln v_4^3 = (3/4) ln x; symmetric tail
    p, q = 2.25 * t, 0.75 * t
    outer, inner = (q - 2.0 * p) / 3.0, (p - 2.0 * q) / 3.0
    return (p, outer, inner, q, q, inner, outer, p)


# lcd = lc + _PLUS_MINUS * ld stacks lc + ld over lc - ld
_PLUS_MINUS = np.array([[1.0], [-1.0]])

# +1 where G falls on a root slot's bracket, -1 where it rises
_SLOT_SIGN = np.array([1.0, -1.0, 1.0])

# 0-d float64 operands: numpy converts a Python float operand on every call,
# which costs more than the operation on a one-cell batch, and the IEEE
# operation is the same
_ZERO, _HALF, _ONE, _THREE_HALVES, _TWO, _THREE, _FOUR, _MINUS_TWO = (
    np.array(v) for v in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, -2.0))
_TOL, _MINUS_TOL = np.array(_TANGENCY_TOL), np.array(-_TANGENCY_TOL)
# the range of the normal doubles
_TINY, _HUGE = np.array(sys.float_info.min), np.array(sys.float_info.max)


def _gap(z, t, ld):
    """G(t) from z = lcd + t.  Since log(e^ld + e^(lc+t)) =
    ld + log(1 + e^(lc-ld+t)), one logaddexp call takes both logs."""
    l = np.logaddexp(_ZERO, z)
    return _THREE * (l[0] - l[1] - ld) - t


def _slope(z):
    """d log g / d log x = G'(t) + 1 from z = lcd + t; it is g'(x) at a fixed
    point.  sigma(z) = (1 + tanh(z/2))/2 cannot overflow."""
    h = np.tanh(_HALF * z)
    return _THREE_HALVES * (h[0] - h[1])


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
    v, pts = vp[0], vp[1]
    pts[:2], pts[4] = lo, hi
    mid = pts[2:4]
    np.subtract(-lc, _PLUS_MINUS * np.abs(ld), out=mid)
    np.minimum(np.maximum(mid, lo, out=mid), hi, out=mid)
    np.multiply(sign, _THREE * np.maximum(_ZERO, lpd + pts) - _THREE * np.maximum(ld, lc + pts)
                - pts, out=v)
    # first point past lo where sign * model <= 0; the zero is on the segment before it
    k = (v[1:] <= _ZERO).argmax(axis=0)
    k[v[4] > _ZERO] = 3
    # the zero of the line through each of the four segments, then segment k's
    va, vb = v[:4], v[1:]
    frac = np.where(va > vb, va / (va - vb), _ZERO)
    return k.choose(pts[:4] + frac * (pts[1:] - pts[:4]))


def _newton(lc, lcd, ld, lo, hi, sign):
    """Zeros of G in the brackets [lo, hi], one per entry, as log x.

    sign is +1 where G falls on the bracket and -1 where it rises, and
    each entry starts at its _model_root.  An iterate has converged when
    its Newton step is below _NEWTON_RTOL * max(1, |t|); that test comes
    first, because a converged iterate may sit on the bracket's edge, so a
    done entry keeps its Newton iterate even where its bracket closed in
    the same step.  A Newton step is taken when it stays in the bracket (up
    to the tolerance; it is then clipped) and is at most half the previous
    move; otherwise the bracket is bisected, so the iteration cannot cycle.
    Converged entries leave the active set at once.  Entries still open
    after _MAX_STEPS come back as NaN.  A done entry's value is its Newton
    iterate, or t itself where G(t) is exactly 0.  The loop narrows its own
    copies of lo and hi in place, so no argument changes.
    """
    t = _model_root(lc, ld, lcd[0], lo, hi, sign)
    out = np.full(t.shape, np.nan)
    todo = np.arange(t.size)        # out's entry for each open entry
    lo, hi = lo.copy(), hi.copy()
    prev = hi - lo
    for _ in range(_MAX_STEPS):
        z = lcd + t
        f = _gap(z, t, ld)
        step = f / (_slope(z) - _ONE)
        size = np.abs(step)
        tol = _NEWTON_RTOL * np.maximum(_ONE, np.abs(t))
        flat = f == _ZERO
        done = (size <= tol) | flat
        newton_t = t - step
        right = sign * f > _ZERO        # the zero lies right of t
        np.copyto(lo, t, where=right)
        np.copyto(hi, t, where=~right)
        width = hi - lo
        newton = (newton_t >= lo - tol) & (newton_t <= hi + tol) & (size <= _HALF * prev)
        prev = _HALF * width
        np.copyto(prev, size, where=newton)
        nxt = _HALF * (lo + hi)
        np.copyto(nxt, np.minimum(np.maximum(newton_t, lo), hi), where=newton)
        closed = width <= tol
        stop = done | closed
        out[todo[closed]] = nxt[closed]
        np.copyto(newton_t, t, where=flat)      # a done entry's value
        out[todo[done]] = newton_t[done]
        if np.count_nonzero(stop) == t.size:
            return out
        keep = ~stop
        lcd = lcd[:, keep]
        todo, ld, lo, hi, sign, prev, t = (
            a[keep] for a in (todo, ld, lo, hi, sign, prev, nxt))
    return out


def _maximum(a, b):
    """np.maximum of two floats: a NaN operand wins (a if both are NaN), and
    equal operands give b (Python's max gives a, and skips a NaN b)."""
    return a if a > b or a != a else b


def _minimum(a, b):
    """np.minimum of two floats, as _maximum is np.maximum."""
    return a if a < b or a != a else b


def _model_start(lc, ld, lpd, lo, hi, sign):
    """_model_root for one entry, on Python floats, with the same bits.

    The same IEEE operations in the same order, with _maximum and _minimum
    for numpy's (-lc - (-|ld|) is -lc + |ld| in IEEE arithmetic).  Only
    segment k's zero is computed, and its quotient cannot divide by zero,
    because va > vb makes va - vb nonzero.
    """
    a = abs(ld)
    pts = (lo, lo, _minimum(_maximum(-lc - a, lo), hi),
           _minimum(_maximum(-lc + a, lo), hi), hi)
    v = [sign * (3.0 * _maximum(0.0, lpd + p) - 3.0 * _maximum(ld, lc + p) - p) for p in pts]
    if v[4] > 0.0:
        k = 3
    else:
        k = next((j for j in range(4) if v[j + 1] <= 0.0), 0)
    va, vb = v[k], v[k + 1]
    frac = va / (va - vb) if va > vb else 0.0
    return pts[k] + frac * (pts[k + 1] - pts[k])


def _newton_one(lc, lpd, lmd, ld, lo, hi, sign):
    """_newton for one entry, on Python floats, with the same bits.

    lpd and lmd are lc + ld and lc - ld, and the entry starts at its
    _model_start.  Every step, test and bracket update is _newton's IEEE
    operation on floats, with _maximum and _minimum where Python's max and
    min differ from numpy's.  numpy keeps logaddexp and tanh: on
    a 2-tuple they give the bits they give in an array, and math.exp and
    math.tanh do not.
    """
    t = _model_start(lc, ld, lpd, lo, hi, sign)
    prev = hi - lo
    for _ in range(_MAX_STEPS):
        zp, zm = lpd + t, lmd + t
        lp, lm = np.logaddexp(_ZERO, (zp, zm)).tolist()
        f = 3.0 * (lp - lm - ld) - t
        if f == 0.0:
            return t
        hp, hm = np.tanh((0.5 * zp, 0.5 * zm)).tolist()
        slope = 1.5 * (hp - hm) - 1.0
        # G'(t) = 0 gives an infinite step, which leaves the bracket and bisects
        step = f / slope if slope else math.inf
        size = abs(step)
        tol = _NEWTON_RTOL * _maximum(1.0, abs(t))
        newton_t = t - step
        if size <= tol:
            return newton_t
        if sign * f > 0.0:          # the zero lies right of t
            lo = t
        else:
            hi = t
        width = hi - lo
        if lo - tol <= newton_t <= hi + tol and size <= 0.5 * prev:
            prev = size
            t = _minimum(_maximum(newton_t, lo), hi)
        else:
            prev = 0.5 * width
            t = 0.5 * (lo + hi)
        if width <= tol:
            return t
    return math.nan


def _newton_cell(lc, lcd, ld, lo, hi, sign):
    """_newton for the one to three root slots of one cell: a float start
    and loop per slot cost fewer numpy calls than the array ones."""
    return [_newton_one(*entry)
            for entry in zip(*(a.tolist() for a in (lc, lcd[0], lcd[1], ld, lo, hi, sign)))]


def root_errors(found, log_roots, roots) -> dict[int, ArithmeticError]:
    """Why the fixed points of a cell cannot be reported, as {row: error}.

    Takes rows of three slots.  A row is listed when a found slot holds a
    root that is not a normal double, and its error names the first such
    slot: FloatingPointError when its iteration did not converge (t is NaN,
    and so is x), OverflowError when x = e^t is outside the double range.
    The early return for a block with no such row saves 7 % of a one-cell
    query.
    """
    bad = found & ~((roots >= _TINY) & (roots <= _HUGE))
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
        from .fixpoint import FixedPointReport   # the report API, which no scan loads

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
    """Positive fixed points of g for every cell of the weight arrays c, d.

    Raises ValueError unless c and d are 1-d (a scalar is one cell) and of
    one length, and unless every weight is positive and finite, as
    TransferWeights does; the scanner, whose weights are checked, calls
    _solve.
    """
    c, d = np.array(c, dtype=float, ndmin=1), np.array(d, dtype=float, ndmin=1)
    if c.ndim != 1 or c.shape != d.shape:
        raise ValueError("c and d must be 1-d arrays of one length")
    if not np.all((c > _ZERO) & (c < np.inf) & (d > _ZERO) & (d < np.inf)):
        raise ValueError("c and d must be positive finite")
    return _solve(c, d)


# NaN marks an empty slot; as a decorator, errstate costs less per call
# than as a with block
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve(c, d):
    """solve_fixed_points on 1-d arrays.

    The tangency data (q, the square root, the log and G(t_i)) is computed
    on the gathered cells with d >= 2, and is NaN elsewhere; a batch with
    none skips it.  When no cell has d > 2, each cell's one bracket
    [-3|ld|, 3|ld|], where G falls, is solved without per-slot masks or
    gathers.  Without these two shortcuts a one-cell query with d < 2
    takes about 30 % longer.  A batch of one cell runs _newton_cell in
    place of _newton.
    """
    n = c.size
    newton = _newton_cell if n == 1 else _newton
    lc, ld = np.log(c), np.log(d)
    lcd = lc + _PLUS_MINUS * ld

    # x_crit_2 = (d/c)(1 - 2q + sqrt((1-q)(1-4q))), q = 1/d^2, and
    # x_crit_1 = 1/(c^2 x_crit_2), since the product of the two roots is
    # 1/c^2 (the textbook difference cancels to 0 for d >~ e^18); tangency
    # holds their logs over log eta_1, log eta_2
    tangency = np.empty((2, 2, n))
    tangency.fill(np.nan)
    real = (d >= _TWO).nonzero()[0]
    if real.size:
        lct, ldt, q = lc[real], ld[real], np.square(_ONE / d[real])
        t2 = ldt - lct + np.log(_ONE - _TWO * q + np.sqrt((_ONE - q) * (_ONE - _FOUR * q)))
        crit = np.array((_MINUS_TWO * lct - t2, t2))
        tangency[:, :, real] = crit, _gap(lcd[:, None, real] + crit, crit, ldt)

    multi = d > _TWO
    log_roots = np.empty((n, 3))
    log_roots.fill(np.nan)
    span = _THREE * np.abs(ld)
    if not np.count_nonzero(multi):
        # one root per cell, in the first slot's bracket [-span, span]
        found = np.zeros((n, 3), dtype=bool)
        found[:, 0] = True
        sign = np.empty(n)
        sign.fill(1.0)
        log_roots[:, 0] = newton(lc, lcd, ld, -span, span, sign)
    else:
        log_crit, log_eta = tangency[0], tangency[1]
        left = multi & (log_eta[0] < _MINUS_TOL)     # G(t_1) < 0: a zero left of t_1
        right = multi & (log_eta[1] > _TOL)          # G(t_2) > 0: a zero right of t_2
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
        log_roots[cells, slot] = newton(lc[cells], lcd[:, cells], ld[cells], lo, hi, sign)

        # a tangency point within _TANGENCY_TOL of G = 0 is itself a double root
        tangent = (multi & (np.abs(log_eta) <= _TOL)).T
        np.copyto(log_roots[:, 0::2], log_crit.T, where=tangent)
        found[:, 0::2] |= tangent
    exp_tangency = np.exp(tangency)
    return FixedPointBatch(found=found, log_roots=log_roots, roots=np.exp(log_roots),
                           slopes=_slope(lcd[:, :, None] + log_roots),
                           x_crit=exp_tangency[0].T, eta=exp_tangency[1].T)


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
