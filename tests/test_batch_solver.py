"""The array solver: a cell's answer does not depend on its batch."""

from hypothesis import given, settings, strategies as st

from ivtree import couplings, derive_weights, solve_fixed_points
from ivtree.scanner import _evaluate_cells, evaluate_point

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
    """A cell's PhasePoint does not depend on which cells share its batch."""
    batch = _evaluate_cells(cells)
    assert batch == [evaluate_point(*cell) for cell in cells]


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
