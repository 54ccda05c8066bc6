"""The J -> -J mirror: g at (1/c, d) evaluated at 1/x is 1/g at (c, d)
evaluated at x, so flipping the spins on every other level of the tree
maps J to -J and keeps Jp.  The cell at -J has the same root count and
transition flag, reciprocal roots (slots 0 and 2 swapped where d > 2), the
same g' and the threshold slopes eta_1, eta_2 inverted and swapped.

The solver does not build the mirror in, so its two sides agree only to
rounding; unlike the pinned digests, the relation holds on any numpy build.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from ivtree import (GridSpec, TransferWeights, couplings, derive_weights, scalar_map_dg,
                    scan_grid, solve_fixed_points)
from ivtree._solver import _TANGENCY_TOL

# bound on each mirror gap: log roots (times |G'(t)| = |1 - g'|, the
# conditioning of a root, and relative to max(1, |t|)), g' (absolute) and
# log eta (relative to max(1, |log eta|)); 200,000 seeded cells of the
# accepted box measured 3.4e-13, 1.1e-13 and 1.2e-13
MIRROR_TOL = 1e-11

# |beta J| and |beta Jp| up to the accepted 354, denser below 12
coupling_st = st.one_of(st.floats(-12.0, 12.0), st.floats(-354.0, 354.0))


def _mirror_slots(d):
    """Slot order of the mirror cell: a cell with d > 2 brackets its roots
    left of x_crit_1, between, and right of x_crit_2, and x -> 1/x reverses
    them; below, the one root keeps slot 0."""
    return np.where(np.asarray(d)[:, None] > 2.0, [2, 1, 0], [0, 1, 2])


def _near_the_tangency_tolerance(log_eta) -> bool:
    """Whether some |log eta_i| lies within rounding of the solver's
    double-root tolerance, where its test may fall either way on the two
    sides."""
    return any(abs(abs(e) - _TANGENCY_TOL) <= MIRROR_TOL for e in log_eta if math.isfinite(e))


def _assert_roots_mirror(t, t_mirror, slope):
    """t and -t_mirror agree to MIRROR_TOL * max(1, |t|) / |G'(t)|: the
    rounding of G over its slope.  A root next to a tangency point, where
    G'(t) is small, moves by far more than rounding when c does."""
    assert abs(t + t_mirror) * abs(1.0 - slope) <= MIRROR_TOL * max(1.0, abs(t)), (
        t, t_mirror, slope)


def _assert_log_etas_mirror(eta, eta_mirror):
    """log eta_1 = -log eta~_2 and log eta_2 = -log eta~_1, where both sides
    are normal doubles (eta saturates at 0 and inf)."""
    for e, m in zip(eta, reversed(eta_mirror)):
        if all(sys.float_info.min <= v <= sys.float_info.max for v in (e, m)):
            le = math.log(e)
            assert abs(le + math.log(m)) <= MIRROR_TOL * max(1.0, abs(le)), (e, m)


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(coupling_st, coupling_st), min_size=1, max_size=30))
def test_the_solver_at_one_over_c_mirrors_the_solver_at_c(cells):
    """Same found pattern with the slots reversed where d > 2, reciprocal
    roots, the same g', and eta_1 = 1/eta~_2.  Only a cell with some
    |log eta_i| within rounding of the double-root tolerance is excused,
    because its count may differ between the two sides."""
    weights = [derive_weights(couplings(bj, bjp, 1.0)) for bj, bjp in cells]
    c, d = np.array([w.c for w in weights]), np.array([w.d for w in weights])
    batch, mirror = solve_fixed_points(c, d), solve_fixed_points(1.0 / c, d)
    slots = _mirror_slots(d)
    rows = np.arange(c.size)[:, None]
    found, log_roots, slopes = (
        getattr(mirror, name)[rows, slots] for name in ("found", "log_roots", "slopes"))
    with np.errstate(divide="ignore"):
        log_eta = np.log(batch.eta)
    for k in range(c.size):
        if _near_the_tangency_tolerance(log_eta[k]):
            continue
        assert batch.found[k].tolist() == found[k].tolist()
        for s in batch.found[k].nonzero()[0]:
            _assert_roots_mirror(batch.log_roots[k, s], log_roots[k, s], batch.slopes[k, s])
            assert abs(batch.slopes[k, s] - slopes[k, s]) <= MIRROR_TOL
        _assert_log_etas_mirror(batch.eta[k].tolist(), mirror.eta[k].tolist())


@settings(max_examples=40, deadline=None)
@given(j=coupling_st, jp=st.tuples(st.floats(-118.0, 118.0), st.floats(-118.0, 118.0)),
       t=st.sampled_from([(1.0, 4.0, 4), (-4.0, -1.0, 4)]))
def test_a_scan_at_minus_j_mirrors_the_scan_at_j(j, jp, t):
    """One-J grids at J and at -J share their Jp and T axes exactly, and
    each cell's mirror is the cell at the same place in the other grid
    (np.linspace over a J range is not mirror-symmetric, so the J axis is
    the one value).  Counts and transition flags are equal, and roots and
    eta mirror.  |beta Jp| <= 118 keeps every root within e^+-708, where
    x and 1/x are both normal doubles, so no cell fails on one side only.
    As in the solver test, only cells within rounding of the double-root
    tolerance are excused."""
    lo, hi = sorted(jp)
    steps = 21 if lo < hi else 1
    table, mirror = (scan_grid(GridSpec((v, v, 1), (lo, hi, steps), t)) for v in (j, -j))
    for p, q in zip(table, mirror):
        assert (p.Jp, p.T, q.J) == (q.Jp, q.T, -p.J)
        assert p.error is None and q.error is None
        if p.eta1 is not None and _near_the_tangency_tolerance(
                [math.log(e) if 0.0 < e < math.inf else math.nan for e in (p.eta1, p.eta2)]):
            continue
        assert (p.root_count, p.phase_transition) == (q.root_count, q.phase_transition)
        w = TransferWeights(p.c, p.d)
        for x, x_mirror in zip(p.roots, reversed(q.roots)):
            _assert_roots_mirror(math.log(x), math.log(x_mirror), scalar_map_dg(x, w))
        if p.eta1 is not None:
            _assert_log_etas_mirror((p.eta1, p.eta2), (q.eta1, q.eta2))
