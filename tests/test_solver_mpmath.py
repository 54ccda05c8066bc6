"""The array solver against an independent 40-digit solve over the whole
weight range the model accepts (|beta J|, |beta Jp| <= 354)."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ivtree import TransferWeights, couplings, derive_weights, solve_fixed_points
from ivtree.scanner import evaluate_point

from conftest import mp_fixed_points

mpf = pytest.importorskip("mpmath").mpf

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
