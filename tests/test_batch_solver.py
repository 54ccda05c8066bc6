"""The array solver: a cell's answer does not depend on its batch."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ivtree.fixpoint
from ivtree import couplings, derive_weights, solve_fixed_points
from ivtree.scanner import evaluate_point

from conftest import TANGENT_CASE, THREE_ROOT_EXPECTED, THREE_ROOT_POINT, assert_close

# (J, Jp, T) draws: moderate couplings at mixed temperatures, including
# negative T and low T where the weights reach e^(+-2*354) or overflow
cell_st = st.tuples(
    st.floats(-20.0, 20.0, allow_subnormal=False),
    st.floats(-20.0, 20.0, allow_subnormal=False),
    st.one_of(st.floats(0.02, 20.0), st.floats(-20.0, -0.02)),
)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(cell_st, min_size=1, max_size=40))
def test_cells_in_a_batch_equal_their_one_cell_answers(cells):
    """A cell's solver bits do not depend on which cells share its batch;
    cells whose weights overflow have no (c, d) and are left out."""
    weights = []
    for cell in cells:
        try:
            weights.append(derive_weights(couplings(*cell)))
        except OverflowError:
            continue
    if not weights:
        return
    c, d = np.array([w.c for w in weights]), np.array([w.d for w in weights])
    batch = solve_fixed_points(c, d)
    for k in range(c.size):
        assert _batch_bytes(solve_fixed_points(c[k], d[k])) == _batch_bytes(batch, [k])


def test_tangent_case_counts_two_inside_a_batch():
    c, d = TANGENT_CASE["c"], TANGENT_CASE["d"]
    three = derive_weights(couplings(*THREE_ROOT_POINT))
    batch = solve_fixed_points([1.0, c, three.c, c * (1 + 1e-3)], [1.0, d, three.d, d])
    rep = batch.report(1)
    assert rep.count == 2
    assert rep.stability[0] == "marginal"
    assert_close(rep.roots, (TANGENT_CASE["x_tangent"], TANGENT_CASE["x_transversal"]),
                 1e-6, "tangent pair")
    assert batch.report(0).roots == (1.0,)
    assert_close(batch.report(2).roots, THREE_ROOT_EXPECTED["roots"], 1e-9, "three roots")
    assert batch.report(3).count == 1


# FixedPointBatch arrays whose bytes are pinned
_BATCH_FIELDS = ("found", "log_roots", "roots", "slopes", "x_crit", "eta")


def _pinned_sample():
    """Seeded log-uniform weights, log c and log d on [-40, 40] and on
    [-700, 700], then every pair of c in {e^-700, 1, e^700} and d in
    {e^-700, 1, 2, e^700}: both ends of the double range and the
    boundaries d = 1 and d = 2."""
    rng = np.random.default_rng(8)
    log_c = np.concatenate([rng.uniform(-40.0, 40.0, 1500), rng.uniform(-700.0, 700.0, 500)])
    log_d = np.concatenate([rng.uniform(-40.0, 40.0, 1500), rng.uniform(-700.0, 700.0, 500)])
    edges_c, edges_d = [math.exp(-700.0), 1.0, math.exp(700.0)], [math.exp(-700.0), 1.0, 2.0,
                                                                  math.exp(700.0)]
    c = np.concatenate([np.exp(log_c), np.repeat(edges_c, len(edges_d))])
    d = np.concatenate([np.exp(log_d), np.tile(edges_d, len(edges_c))])
    return c, d


def _batch_bytes(batch, cells=slice(None)):
    return b"".join(np.ascontiguousarray(getattr(batch, name)[cells]).tobytes()
                    for name in _BATCH_FIELDS)


def test_solver_bits_are_pinned():
    """sha256 of every FixedPointBatch array over the sample solved as one
    batch, taken from the solver before its per-call overhead was cut.  The
    digest holds for this build of numpy's log/exp/tanh loops; a change of
    any bit of any root, slope, tangency point or eta shows here."""
    batch = solve_fixed_points(*_pinned_sample())
    assert hashlib.sha256(_batch_bytes(batch)).hexdigest() == (
        "d549081f71c3967a96eba291e56a0b7f86c8e4207dc82c2b517d43c058abb2df")


def test_cells_solved_alone_have_the_bits_of_the_batch():
    c, d = _pinned_sample()
    batch = solve_fixed_points(c, d)
    for k in [*range(0, c.size, 97), *range(c.size - 12, c.size)]:
        assert _batch_bytes(solve_fixed_points(c[k], d[k])) == _batch_bytes(batch, [k])


@pytest.mark.parametrize("part", [
    pytest.param(lambda d: d < 2.0, id="d<2"),
    pytest.param(lambda d: d <= 2.0, id="d<=2"),
    pytest.param(lambda d: d >= 2.0, id="d>=2"),
    pytest.param(lambda d: d > 2.0, id="d>2"),
])
def test_batches_of_one_regime_have_the_bits_of_the_mixed_batch(part):
    """A batch in which every cell has d >= 2, or no cell has d > 2, takes
    the solver's shortcuts for such batches; its arrays are the rows of the
    sample solved as one mixed batch."""
    c, d = _pinned_sample()
    cells = part(d).nonzero()[0]
    assert 100 < cells.size < c.size
    assert _batch_bytes(solve_fixed_points(c[cells], d[cells])) == _batch_bytes(
        solve_fixed_points(c, d), cells)


def test_unconverged_slots_come_back_nan(monkeypatch):
    """With the step budget cut to two, the reference cell (seven Newton
    iterations) leaves every slot open, while c = d = 1, whose Newton start
    is the root x = 1 itself, still gets it."""
    three = derive_weights(couplings(*THREE_ROOT_POINT))
    c, d = [three.c, 1.0], [three.d, 1.0]
    full = solve_fixed_points(c, d)
    monkeypatch.setattr(ivtree.fixpoint, "_MAX_STEPS", 2)
    cut = solve_fixed_points(c, d)
    assert cut.found.tolist() == full.found.tolist()
    assert np.isnan(cut.log_roots[0]).all() and np.isnan(cut.roots[0]).all()
    assert cut.log_roots[1, 0] == full.log_roots[1, 0] == 0.0
    with pytest.raises(FloatingPointError, match="did not converge"):
        cut.report(0)
    assert cut.report(1) == full.report(1)
    point = evaluate_point(*THREE_ROOT_POINT)
    assert point.error == "Newton iteration for a fixed point did not converge"
    assert point.root_count is None and point.roots == ()
