"""The array solver against an independent 40-digit solve over the whole
weight range the model accepts (|beta J|, |beta Jp| <= 354)."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ivtree import TransferWeights, couplings, derive_weights, solve_fixed_points
from ivtree.scanner import evaluate_point

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf


def _bisect_log(fn, lo, hi, steps=200):
    """Sign change of fn in (lo, hi), 0 < lo < hi, bisected in log y."""
    s_lo, s_hi = mpmath.log(lo), mpmath.log(hi)
    lo_negative = fn(lo) < 0
    for _ in range(steps):
        mid = (s_lo + s_hi) / 2
        if (fn(mpmath.exp(mid)) < 0) == lo_negative:
            s_lo = mid
        else:
            s_hi = mid
    return mpmath.exp((s_lo + s_hi) / 2)


def mp_fixed_points(c: float, d: float):
    """Positive fixed points of g at 40 digits, and whether the cell is
    within 1e-12 of a tangency.

    x = y^3 turns g(x) = x into f(y) = c y^4 - c d y^3 + d y - 1 = 0, whose
    positive roots lie in [min(d, 1/d), max(d, 1/d)].  f'' = 6 c y (2y - d),
    so f' has its only positive minimum at y = d/2; when that minimum is
    negative, the two zeros of f' split the range into monotone pieces.
    """
    with mp.workdps(40):
        c, d = mpf(c), mpf(d)
        f = lambda y: ((c * y - c * d) * y * y + d) * y - 1
        df = lambda y: (4 * c * y - 3 * c * d) * y * y + d
        lo, hi = min(d, 1 / d) / 2, max(d, 1 / d) * 2
        crit = []
        if df(d / 2) < 0:
            # f' > 0 at y -> 0, below 1/sqrt(3c), and at y = d
            y_low = min(d / 2, 1 / mpmath.sqrt(3 * c)) / 2
            crit = [_bisect_log(df, y_low, d / 2), _bisect_log(df, d / 2, d)]
        near_tangent = any(
            abs(f(y)) < mpf("1e-12") * (c * y**4 + c * d * y**3 + d * y + 1) for y in crit)
        edges = [lo] + [y for y in crit if lo < y < hi] + [hi]
        roots = [_bisect_log(f, a, b) for a, b in zip(edges, edges[1:])
                 if (f(a) < 0) != (f(b) < 0)]
        return [y**3 for y in roots], near_tangent


log_beta_st = st.builds(
    lambda mag, negative: -math.exp(mag) if negative else math.exp(mag),
    st.floats(math.log(1e-3), math.log(354.0)), st.booleans())


@settings(max_examples=150, deadline=None)
@given(beta_j=log_beta_st, beta_jp=log_beta_st)
def test_roots_match_a_40_digit_solve_over_the_accepted_box(beta_j, beta_jp):
    """Log-uniform |beta J|, |beta Jp| up to 354: same count, roots within 1e-9.

    A cell whose fixed points are not normal doubles carries an error
    instead of roots; a cell within 1e-12 of a tangency is excused.  (The
    solver counts a double root once |log eta_i| <= 1e-10, a band of
    relative width ~1e-10 in c that log-uniform draws do not reach.)
    """
    w = derive_weights(couplings(beta_j, beta_jp, 1.0))
    exact, near_tangent = mp_fixed_points(w.c, w.d)
    p = evaluate_point(beta_j, beta_jp, 1.0)
    if not all(mpf(sys.float_info.min) <= x <= mpf(sys.float_info.max) for x in exact):
        assert p.error is not None and p.roots == ()
        return
    assert p.error is None
    if near_tangent:
        return
    assert p.root_count == len(exact)
    for got, want in zip(p.roots, exact):
        assert abs(mpf(got) / want - 1) <= 1e-9, (got, want)


def test_weights_built_from_c_and_d_match_the_40_digit_solve_at_the_extremes():
    for lc, ld in ((-700.0, 5.0), (700.0, 200.0), (-300.0, 236.0), (0.0, 700.0),
                   (3.0, -700.0), (-1.0, 1e-12)):
        w = TransferWeights(math.exp(lc), math.exp(ld))
        exact, near_tangent = mp_fixed_points(w.c, w.d)
        assert not near_tangent
        batch = solve_fixed_points(w.c, w.d)
        if all(mpf(sys.float_info.min) <= x <= mpf(sys.float_info.max) for x in exact):
            rep = batch.report(0)
            assert rep.count == len(exact)
            for got, want in zip(rep.roots, exact):
                assert abs(mpf(got) / want - 1) <= 1e-9
        else:
            with pytest.raises(OverflowError):
                batch.report(0)
