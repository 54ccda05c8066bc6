"""The eight-equation map, its reduction, and the scalar map with derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivtree import (
    TransferWeights,
    UVector,
    VVector,
    check_identities,
    couplings,
    derive_weights,
    full_step,
    iterate_map,
    reduced_step,
    scalar_map_dg,
    scalar_map_g,
)

from conftest import THREE_ROOT_POINT, assert_close, scalar_map_d2g

EPS = np.finfo(float).eps

weights_st = st.builds(
    TransferWeights,
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
)

u_st = st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8).map(
    lambda hs: UVector.from_array(np.exp(hs))
)

v_st = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(
    lambda hs: VVector(*np.exp(hs))
)


def fd_first(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd_second(f, x, h):
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


# ---------------------------------------------------------------- full step


def test_trivial_weights_collapse_every_bracket_to_eight():
    w = TransferWeights(1.0, 1.0)
    out, gauge = full_step(UVector.from_array(np.ones(8)), w)
    assert gauge == 1.0
    expected = np.where(np.array([1, -1, 1, -1, -1, 1, -1, 1]) == 1, 512.0, 1.0 / 512.0)
    assert_close(out.as_array(), expected, 1e-14, "trivial step")


@given(u=u_st, w=weights_st)
def test_cube_identities_hold_for_any_step_output(u, w):
    out, _ = full_step(u, w)
    assert np.all(check_identities(out) < 1e-10)


@given(u=u_st, w=weights_st, log_gauge=st.floats(-3.0, 3.0))
def test_gauge_covariance(u, w, log_gauge):
    """Scaling the gauge scales direct components up and inverted ones down,
    leaving the corner products invariant."""
    gauge = math.exp(log_gauge)
    base, _ = full_step(u, w)
    scaled, _ = full_step(u, w, gauge=gauge)
    signs = np.array([1, -1, 1, -1, -1, 1, -1, 1], dtype=float)
    assert_close(scaled.as_array(), base.as_array() * gauge**signs, 1e-9, "gauge scaling")
    b, s = base.as_array(), scaled.as_array()
    assert_close(s[0] * s[3], b[0] * b[3], 1e-9, "u1'u4'")
    assert_close(s[4] * s[7], b[4] * b[7], 1e-9, "u5'u8'")


def test_fixed_point_makes_step_output_proportional(three_root_weights):
    """At a fixed point of g the map reproduces u up to one common constant
    (direct components times C, inverted components divided by C)."""
    from ivtree import field_from_scalar, find_positive_fixed_points

    signs = np.array([1, -1, 1, -1, -1, 1, -1, 1], dtype=float)
    for root in find_positive_fixed_points(three_root_weights).roots:
        u = UVector.from_array(field_from_scalar(root).u)
        out, _ = full_step(u, three_root_weights)
        ratios = (out.as_array() / u.as_array()) ** signs
        assert ratios.max() / ratios.min() - 1.0 < 1e-12


def test_step_overflow_names_the_equation():
    w = TransferWeights(1e280, 1.0)
    with pytest.raises(OverflowError, match="u1'"):
        full_step(UVector.from_array(np.ones(8)), w)


@pytest.mark.parametrize("make", [
    lambda: UVector(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
    lambda: UVector.from_array([1.0] * 7 + [math.inf]),
    lambda: VVector(v1=1.0, v4=-1.0, v5=1.0, v8=1.0),
    lambda: VVector(1.0, 1.0, math.nan, 1.0),
])
def test_field_vectors_reject_non_positive_or_non_finite_components(make):
    with pytest.raises(ValueError, match="positive finite"):
        make()


def test_gauge_must_be_positive():
    w = TransferWeights(1.0, 1.0)
    with pytest.raises(ValueError):
        full_step(UVector.from_array(np.ones(8)), w, gauge=0.0)


def test_extreme_weights_fall_back_to_log_sum():
    # the bracket is always a log-sum-exp, so it stays finite where its
    # terms overflow a double; at b = u = 1 the dominant term of B(+, +),
    # a^3 u_1 for c > 1 and a^-3 / u_4 for c < 1, then pins its log
    from ivtree.oracle import _log_brackets

    for c in (1e260, 1e-260):
        w = TransferWeights(c, 1.0)
        coef = np.array([w.log_a, w.log_b] + [0.0] * 8)[:, None]
        log_b = _log_brackets(coef)[1][0, 0, 0]
        assert math.isfinite(log_b)
        assert_close(log_b, 3.0 * abs(w.log_a), 1e-12, f"saturated bracket at c = {c}")


def test_identity_residuals_flag_a_perturbed_component():
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    out, _ = full_step(UVector.from_array(np.ones(8)), w)
    assert np.all(check_identities(out) < 1e-10)
    arr = out.as_array()
    arr[1] *= 2.0
    res = check_identities(UVector.from_array(arr))
    assert_close(res[0], 7.0, 1e-9, "perturbed residual")  # 2^3 - 1
    assert res[1] < 1e-9  # u2' does not enter the second identity


def test_all_ones_passes_identities_exactly():
    assert np.all(check_identities(UVector.from_array(np.ones(8))) == 0.0)


# ------------------------------------------------------------- reduced step


def test_reduced_trivial_weights():
    w = TransferWeights(1.0, 1.0)
    out, _ = reduced_step(VVector(1, 1, 1, 1), w)
    assert_close(out.as_array(), [8.0, 0.125, 0.125, 8.0], 1e-14, "reduced trivial")


@pytest.mark.parametrize("c", [1e280, 1e-300])
def test_reduced_step_out_of_range_names_the_step(c):
    """A cube that overflows inside the step raises the step's own error."""
    with pytest.raises(OverflowError, match="^reduced step out of representable range$"):
        reduced_step(VVector(1.0, 1.0, 1.0, 1.0), TransferWeights(c, 1.0))


@given(v=v_st, w=weights_st)
def test_reduced_step_matches_full_step_on_the_cube_manifold(v, w):
    """With u_i = v_i^3 on corners and the inner components pinned by the
    cube identities, the full map cubes exactly what the reduced map yields."""
    u = UVector.from_array([
        v.v1**3, v.v4 / v.v1**2, v.v1 / v.v4**2, v.v4**3,
        v.v5**3, v.v8 / v.v5**2, v.v5 / v.v8**2, v.v8**3,
    ])
    u_next, _ = full_step(u, w)
    v_next, _ = reduced_step(v, w)
    assert_close(
        [u_next.u1, u_next.u4, u_next.u5, u_next.u8],
        [v_next.v1**3, v_next.v4**3, v_next.v5**3, v_next.v8**3],
        1e-9, "corner cubes",
    )


@given(v=v_st, w=weights_st, log_gauge=st.floats(-2.0, 2.0))
def test_reduced_products_are_gauge_invariant(v, w, log_gauge):
    base, _ = reduced_step(v, w)
    scaled, _ = reduced_step(v, w, gauge=math.exp(log_gauge))
    assert_close(scaled.v1 * scaled.v4, base.v1 * base.v4, 1e-9, "v1'v4'")
    assert_close(scaled.v5 * scaled.v8, base.v5 * base.v8, 1e-9, "v5'v8'")


@given(log_x=st.floats(-12.0, 12.0), w=weights_st)
def test_reduction_commutes_with_the_scalar_map(log_x, w):
    """Starting on the invariant set v1 = v4^3, v8 = v5^3 with v4 = v5 =
    x^{1/4}, the gauge-free products after one step equal g(x)."""
    x = math.exp(log_x)
    q = x**0.25
    v_next, _ = reduced_step(VVector(q**3, q, q, q**3), w)
    gx = scalar_map_g(x, w)
    assert_close(v_next.v1 * v_next.v4, gx, 1e-10, "x' forward pair")
    assert_close(v_next.v5 * v_next.v8, gx, 1e-10, "x' backward pair")


# --------------------------------------------------------------- scalar map


def test_scalar_map_trivial_cases():
    w = TransferWeights(1.0, 1.0)
    for x in (0.0, 0.3, 1.0, 7.0, 1e6):
        assert scalar_map_g(x, w) == 1.0
    w2 = TransferWeights(2.0, 5.0)
    assert_close(scalar_map_g(0.0, w2), (1.0 / 5.0) ** 3, 1e-15, "g(0)")
    for x in (-1.0, math.nan):
        with pytest.raises(ValueError):
            scalar_map_g(x, w2)


def test_scalar_map_saturates_at_d_cubed():
    w = TransferWeights(0.5, 3.0)
    assert_close(scalar_map_g(1e300, w), 27.0, 1e-10, "g at huge x")


def test_scalar_map_out_of_range_names_the_map():
    """A cube outside the double range raises an error that names g (or g')
    and the range, not the bare OverflowError(34, ...) of float **; at
    beta Jp = 300 iterating from x = 5 reaches one in two steps."""
    w = derive_weights(couplings(1.0, 300.0, 1.0))
    with pytest.raises(OverflowError, match=r"^g\(7\.03471e\+160\) is outside the double range"):
        iterate_map(5.0, w)
    with pytest.raises(OverflowError, match=r"^g'\(1e-10\) is outside the double range"):
        scalar_map_dg(1e-10, w)


def test_first_derivative_vanishes_at_d_equal_one():
    w = TransferWeights(4.2, 1.0)
    assert scalar_map_dg(17.0, w) == 0.0


@given(w=weights_st, x=st.floats(0.0, 100.0))
def test_monotonicity_sign(w, x):
    dg = scalar_map_dg(x, w)
    if w.d > 1.0:
        assert dg > 0.0
    elif w.d < 1.0:
        assert dg < 0.0


@settings(max_examples=200)
@given(
    c=st.floats(0.05, 10.0),
    d=st.floats(0.05, 10.0),
    x=st.floats(0.0, 100.0),
)
def test_derivatives_match_finite_differences(c, d, x):
    """Closed forms against five-point central stencils.

    The error floor is the natural derivative scale |g|/(1+x)^k: right at a
    zero of g' or g'' a bare relative comparison would only measure stencil
    rounding noise.
    """
    w = TransferWeights(c, d)
    g = lambda z: scalar_map_g(z, w)
    # distance to the pole at -d/c sets the local feature size of g
    pole_gap = x + d / c

    h1 = EPS**0.2 * pole_gap
    x1 = max(x, 2.0 * h1)
    d1 = scalar_map_dg(x1, w)
    scale1 = max(abs(d1), abs(g(x1)) / (1.0 + x1))
    assert abs(fd_first(g, x1, h1) - d1) <= 1e-6 * scale1

    h2 = EPS ** (1.0 / 6.0) * pole_gap
    x2 = max(x, 2.0 * h2)
    d2 = scalar_map_d2g(x2, w)
    scale2 = max(abs(d2), abs(g(x2)) / (1.0 + x2) ** 2)
    assert abs(fd_second(g, x2, h2) - d2) <= 1e-6 * scale2
