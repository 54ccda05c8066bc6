"""The array solver: a cell's answer does not depend on its batch."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ivtree._solver
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


def _near_tangency_cells():
    """c* (1 + k 2^-52) for |k| <= 3 at both tangencies c* = 1/eta_i(c=1)
    of several d > 2: a double root at a tangency point and one simple root."""
    d = np.array([2.0 + 2.0**-20, 2.001, 2.5, 3.2, 10.0, 1e3, 1e8])
    c_star = 1.0 / solve_fixed_points(np.ones(d.size), d).eta
    ulps = 1.0 + np.arange(-3, 4) * 2.0**-52
    return (c_star[:, :, None] * ulps).ravel(), np.repeat(d, 2 * ulps.size)


def _assert_cells_alone_have_the_bits_of_the_batch(c, d):
    """A one-cell batch runs its Newton loop on floats, every larger batch
    on arrays; each cell's arrays have the same bits either way."""
    batch = solve_fixed_points(c, d)
    for k in range(c.size):
        assert _batch_bytes(solve_fixed_points(c[k], d[k])) == _batch_bytes(batch, [k])


def _part_of_the_sample(part):
    c, d = _pinned_sample()
    cells = part(d)
    return c[cells], d[cells]


def _twice(c, d):
    """A batch of the one cell (c, d), twice, so the batch takes the array loop."""
    return np.array([c, c]), np.array([d, d])


# the batches on one side of d = 2 take _solve's shortcuts (every cell
# gathered for the tangency block, or one bracket per cell); d = 2 is the
# edge of both, the tangent case counts a double root and (1, 2) is the
# triple point x = 1
@pytest.mark.parametrize("cells", [
    pytest.param(_pinned_sample, id="pinned-sample"),
    pytest.param(lambda: _part_of_the_sample(lambda d: d >= 2.0), id="every-d>=2"),
    pytest.param(lambda: _part_of_the_sample(lambda d: d <= 2.0), id="every-d<=2"),
    pytest.param(lambda: (np.geomspace(1e-6, 1e6, 25), np.full(25, 2.0)), id="d=2"),
    pytest.param(lambda: _twice(TANGENT_CASE["c"], TANGENT_CASE["d"]), id="tangent-case"),
    pytest.param(lambda: _twice(1.0, 2.0), id="triple-point"),
])
def test_cells_solved_alone_have_the_bits_of_the_batch(cells):
    _assert_cells_alone_have_the_bits_of_the_batch(*cells())


def test_near_tangency_cells_solved_alone_have_the_bits_of_the_batch():
    c, d = _near_tangency_cells()
    assert np.isfinite(c).all() and c.size == 98
    assert solve_fixed_points(c, d).found.sum(axis=1).tolist() == [2] * c.size
    _assert_cells_alone_have_the_bits_of_the_batch(c, d)


def test_float_helpers_give_the_bits_of_numpy():
    """The float Newton loop divides, and takes max and min, with numpy's
    IEEE results: Python raises where numpy returns +-inf or NaN for a zero
    divisor, and its max and min treat NaN and signed zeros otherwise."""
    # +-0, +-inf, NaN of either sign and finite values
    special = [0.0, -0.0, 1.5, -2.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, -math.nan]
    fp = ivtree._solver
    for a in special:
        for b in special:
            x, y = np.array(a), np.array(b)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                assert np.float64(fp._divide(a, b)).tobytes() == (x / y).tobytes(), (a, b)
            assert np.float64(fp._maximum(a, b)).tobytes() == np.maximum(x, y).tobytes(), (a, b)
            assert np.float64(fp._minimum(a, b)).tobytes() == np.minimum(x, y).tobytes(), (a, b)


def _assert_float_starts_have_the_bits_of_model_root(lc, ld, lpd, lo, hi, sign):
    """_model_start on each entry gives _model_root's start bit for bit.
    The starts themselves are compared: Newton can reach the same root from
    two different starts and hide a mismatch."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        starts = ivtree._solver._model_root(lc, ld, lpd, lo, hi, sign)
    entries = zip(*(a.tolist() for a in (lc, ld, lpd, lo, hi, sign)))
    floats = np.array([ivtree._solver._model_start(*entry) for entry in entries])
    assert floats.tobytes() == starts.tobytes()


@pytest.mark.parametrize("cells", [
    pytest.param(_pinned_sample, id="pinned-sample"),
    pytest.param(_near_tangency_cells, id="near-tangency"),
])
def test_the_float_start_of_every_root_slot_has_the_bits_of_model_root(cells, monkeypatch):
    """Every root slot's start arguments, as the array loop receives them."""
    calls = []
    newton = ivtree._solver._newton

    def recorded_newton(lc, lcd, ld, lo, hi, sign):
        calls.append((lc, ld, lcd[0], lo, hi, sign))
        return newton(lc, lcd, ld, lo, hi, sign)

    c, d = cells()
    monkeypatch.setattr(ivtree._solver, "_newton", recorded_newton)
    solve_fixed_points(c, d)
    [args] = calls
    assert args[0].size >= c.size
    _assert_float_starts_have_the_bits_of_model_root(*args)


def test_the_float_start_has_the_bits_of_model_root_on_special_arguments():
    """A seeded sweep of +-0.0, kinks -lc -+ |ld| exactly on lo or hi,
    lo == hi, models with no sign change on the bracket (so the last
    segment is taken), both signs, and infinite and NaN operands."""
    rng = np.random.default_rng(21)
    n = 20000
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324, 700.0, -700.0,
                        1e308, -1e308, math.inf, -math.inf, math.nan])

    def draw():
        x = rng.uniform(-50.0, 50.0, n)
        pick = rng.random(n) < 0.4
        x[pick] = rng.choice(special, pick.sum())
        return x

    lc, ld, lo, hi = draw(), draw(), draw(), draw()
    sign = rng.choice([1.0, -1.0], n)
    # 0: as drawn; 1, 2: a kink on lo; 3, 4: a kink on hi; 5: lo == hi;
    # 6: the sign for which sign * model is positive at hi, where the last
    # segment is taken
    case = rng.integers(0, 7, n)
    with np.errstate(invalid="ignore", over="ignore"):
        kinks = -lc - np.abs(ld), -lc + np.abs(ld)
        lo = np.select([case == 1, case == 2], kinks, lo)
        hi = np.select([case == 3, case == 4, case == 5], [kinks[1], kinks[0], lo], hi)
        lpd = lc + ld
        model_hi = 3.0 * np.maximum(0.0, lpd + hi) - 3.0 * np.maximum(ld, lc + hi) - hi
    sign[case == 6] = np.where(model_hi[case == 6] < 0.0, -1.0, 1.0)
    assert (lo == hi).sum() > n // 10 and np.signbit(lo[lo == 0.0]).any()
    assert (sign * model_hi > 0.0).sum() > n // 3
    _assert_float_starts_have_the_bits_of_model_root(lc, ld, lpd, lo, hi, sign)


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


def _three_root_cell():
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    return [w.c] * 2, [w.d] * 2


# each cell comes twice: a batch of one cell does not call the array loop;
# a count of ValueError marks weights that no TransferWeights accepts
@pytest.mark.parametrize("cells, count", [
    pytest.param(_pinned_sample, None, id="pinned-sample"),
    pytest.param(lambda: ([3.0] * 2, [1.5] * 2), 1, id="d<2"),
    pytest.param(lambda: ([2.0] * 2, [2.0] * 2), 1, id="d=2"),
    pytest.param(lambda: ([100.0] * 2, [3.0] * 2), 1, id="d>2-one-root"),
    pytest.param(_three_root_cell, 3, id="d>2-three-roots"),
    pytest.param(lambda: ([-1.0] * 2, [3.0] * 2), ValueError, id="c<0"),
    pytest.param(lambda: ([math.inf] * 2, [3.0] * 2), ValueError, id="c=inf"),
    pytest.param(lambda: ([math.nan] * 2, [1.0] * 2), ValueError, id="c=nan"),
    pytest.param(lambda: ([1.0] * 2, [0.0] * 2), ValueError, id="d=0"),
])
def test_the_solver_leaves_its_input_arrays_unchanged(cells, count, monkeypatch):
    """solve_fixed_points keeps c and d, and every _newton call keeps all its
    arguments, the brackets it narrows included: each call works on its own
    copies.  Weights that are not positive and finite raise ValueError,
    for a batch and for one cell, before anything is solved."""
    c, d = (np.array(x, dtype=float) for x in cells())
    kept = []
    newton = ivtree._solver._newton

    def checked_newton(*args):
        before = [a.tobytes() for a in args]
        out = newton(*args)
        kept.append([a.tobytes() for a in args] == before)
        return out

    monkeypatch.setattr(ivtree._solver, "_newton", checked_newton)
    c_before, d_before = c.tobytes(), d.tobytes()
    if count is ValueError:
        for args in ((c, d), (c.item(0), d.item(0))):
            with pytest.raises(ValueError, match="^c and d must be positive finite$"):
                solve_fixed_points(*args)
        assert kept == []
    else:
        batch = solve_fixed_points(c, d)
        assert kept == [True]
        if count is not None:
            assert batch.report(0).count == count
    assert (c.tobytes(), d.tobytes()) == (c_before, d_before)


@pytest.mark.parametrize("c, d", [
    pytest.param([1.0, 2.0], [3.0], id="lengths-2-and-1"),
    pytest.param([[1.0, 2.0]], [[3.0, 3.0]], id="2-d"),
])
def test_weights_of_other_shapes_are_refused(c, d):
    """c and d must be 1-d and of one length: a shorter d would leave a cell
    unsolved, and a 2-d batch would fail inside the solver."""
    with pytest.raises(ValueError, match="^c and d must be 1-d arrays of one length$"):
        solve_fixed_points(c, d)


def test_unconverged_slots_come_back_nan(monkeypatch):
    """With the step budget cut to two, the reference cell (seven Newton
    iterations) leaves every slot open, while c = d = 1, whose Newton start
    is the root x = 1 itself, still gets it."""
    three = derive_weights(couplings(*THREE_ROOT_POINT))
    c, d = [three.c, 1.0], [three.d, 1.0]
    full = solve_fixed_points(c, d)
    monkeypatch.setattr(ivtree._solver, "_MAX_STEPS", 2)
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


def test_unconverged_slots_of_a_cell_solved_alone_come_back_nan(monkeypatch):
    """The one-cell float loop runs out of steps as the array loop does:
    with the budget cut to two, every slot of the reference cell solved
    alone is NaN and an error, and c = d = 1 still gets its root x = 1."""
    three = derive_weights(couplings(*THREE_ROOT_POINT))
    full = solve_fixed_points(three.c, three.d)
    monkeypatch.setattr(ivtree._solver, "_MAX_STEPS", 2)
    cut = solve_fixed_points(three.c, three.d)
    assert cut.found.tolist() == full.found.tolist() == [[True] * 3]
    assert np.isnan(cut.log_roots).all() and np.isnan(cut.roots).all()
    [error] = ivtree._solver.root_errors(cut.found, cut.log_roots, cut.roots).values()
    assert isinstance(error, FloatingPointError)
    assert solve_fixed_points(1.0, 1.0).log_roots[0, 0] == 0.0
