"""The eight-equation map, its reduction, and the scalar map with derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivtree import (
    BoundaryFieldVector,
    TransferWeights,
    couplings,
    derive_weights,
    full_step,
    iterate_map,
    scalar_map_dg,
    scalar_map_g,
)

from conftest import THREE_ROOT_POINT, assert_close, scalar_map_d2g
from reference import VVector, check_identities, reduced_step

EPS = np.finfo(float).eps

SIGNS = np.array([1, -1, 1, -1, -1, 1, -1, 1], dtype=float)

weights_st = st.builds(
    TransferWeights,
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
)

# the whole box derive_weights accepts: |log c|, |log d| <= 709
box_weights_st = st.builds(
    lambda lc, ld: TransferWeights(math.exp(lc), math.exp(ld)),
    st.floats(-709.0, 709.0),
    st.floats(-709.0, 709.0),
)

h_st = st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8).map(BoundaryFieldVector)

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
    """At c = d = 1 every bracket is 8, so the zero field maps to s_k 9 log 2."""
    out = full_step(BoundaryFieldVector((0.0,) * 8), TransferWeights(1.0, 1.0))
    assert_close(out.h, SIGNS * 9.0 * math.log(2.0), 1e-14, "trivial step")


@given(h=h_st, w=box_weights_st)
def test_cube_identities_hold_for_any_step_output(h, w):
    out = full_step(h, w)
    assert all(math.isfinite(v) for v in out.h)
    assert np.all(check_identities(out) < 1e-10)


def test_fixed_point_makes_step_output_proportional(three_root_weights):
    """At a fixed point of g the map reproduces h up to one common gauge
    (s_k log C added to component k)."""
    from ivtree import field_from_scalar, find_positive_fixed_points

    for root in find_positive_fixed_points(three_root_weights).roots:
        h = field_from_scalar(root)
        log_ratios = SIGNS * (np.array(full_step(h, three_root_weights).h) - h.h)
        assert math.expm1(log_ratios.max() - log_ratios.min()) < 1e-12


def test_step_is_finite_where_the_bracket_product_overflows():
    """At a = 1e140 the update of class 1 is a^9: far outside the double
    range as a power, but a finite log, 9 |log a|."""
    w = TransferWeights(1e280, 1.0)
    out = full_step(BoundaryFieldVector((0.0,) * 8), w)
    assert all(math.isfinite(v) for v in out.h)
    assert_close(out.h[0], 9.0 * abs(w.log_a), 1e-12, "h1' at a = 1e140")


def test_step_names_an_update_outside_the_double_range():
    """A finite field whose update leaves the double range raises a named
    OverflowError, with no numpy warning (the suite turns warnings into
    errors), rather than blaming its input with a ValueError."""
    h = BoundaryFieldVector((1e308, -1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 5.0))
    with pytest.raises(OverflowError, match="h' is outside the double range"):
        full_step(h, TransferWeights(1.0, 1.0))


@pytest.mark.parametrize("make", [
    lambda: BoundaryFieldVector.from_u([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
    lambda: BoundaryFieldVector.from_u([1.0] * 7 + [math.inf]),
    lambda: VVector(v1=1.0, v4=-1.0, v5=1.0, v8=1.0),
    lambda: VVector(1.0, 1.0, math.nan, 1.0),
])
def test_field_vectors_reject_non_positive_or_non_finite_components(make):
    with pytest.raises(ValueError, match="positive finite"):
        make()


def test_extreme_weights_fall_back_to_log_sum():
    # the bracket is always a log-sum-exp, so it stays finite where its
    # terms overflow a double; at b = u = 1 the dominant term of B(+, +),
    # a^3 u_1 for c > 1 and a^-3 / u_4 for c < 1, then pins its log
    from ivtree._check import _log_brackets

    for c in (1e260, 1e-260):
        w = TransferWeights(c, 1.0)
        coef = np.array([w.log_a, w.log_b] + [0.0] * 8)[:, None]
        log_b = _log_brackets(coef)[1][0, 0, 0]
        assert math.isfinite(log_b)
        assert_close(log_b, 3.0 * abs(w.log_a), 1e-12, f"saturated bracket at c = {c}")


def test_identity_residuals_flag_a_perturbed_component():
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    out = full_step(BoundaryFieldVector((0.0,) * 8), w)
    assert np.all(check_identities(out) < 1e-10)
    h = list(out.h)
    h[1] += math.log(2.0)
    res = check_identities(BoundaryFieldVector(h))
    assert_close(res[0], 7.0, 1e-9, "perturbed residual")  # 2^3 - 1
    assert res[1] < 1e-9  # h2' does not enter the second identity


def test_all_ones_passes_identities_exactly():
    """u = 1, that is h = 0."""
    assert np.all(check_identities(BoundaryFieldVector((0.0,) * 8)) == 0.0)


# ------------------------------------------------------------- reduced step


def test_reduced_trivial_weights():
    w = TransferWeights(1.0, 1.0)
    out = reduced_step(VVector(1, 1, 1, 1), w)
    assert_close(out.as_array(), [8.0, 0.125, 0.125, 8.0], 1e-14, "reduced trivial")


@pytest.mark.parametrize("c", [1e280, 1e-300])
def test_reduced_step_out_of_range_names_the_step(c):
    """A cube that overflows inside the step raises the step's own error."""
    with pytest.raises(OverflowError, match="^reduced step out of representable range$"):
        reduced_step(VVector(1.0, 1.0, 1.0, 1.0), TransferWeights(c, 1.0))


@given(v=v_st, w=weights_st)
def test_reduced_step_matches_full_step_on_the_cube_manifold(v, w):
    """With u_i = e^{h_i} = v_i^3 on corners and the inner components pinned
    by the cube identities, the full map cubes exactly what the reduced map
    yields."""
    h = BoundaryFieldVector.from_u([
        v.v1**3, v.v4 / v.v1**2, v.v1 / v.v4**2, v.v4**3,
        v.v5**3, v.v8 / v.v5**2, v.v5 / v.v8**2, v.v8**3,
    ])
    u_next = full_step(h, w).u
    v_next = reduced_step(v, w)
    assert_close(
        u_next[[0, 3, 4, 7]],
        [v_next.v1**3, v_next.v4**3, v_next.v5**3, v_next.v8**3],
        1e-9, "corner cubes",
    )


@given(log_x=st.floats(-12.0, 12.0), w=weights_st)
def test_reduction_commutes_with_the_scalar_map(log_x, w):
    """Starting on the invariant set v1 = v4^3, v8 = v5^3 with v4 = v5 =
    x^{1/4}, the gauge-free products after one step equal g(x)."""
    x = math.exp(log_x)
    q = x**0.25
    v_next = reduced_step(VVector(q**3, q, q, q**3), w)
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
        for f in (scalar_map_g, scalar_map_dg):
            with pytest.raises(ValueError, match="x must be nonnegative"):
                f(x, w2)


def test_scalar_map_saturates_at_d_cubed():
    w = TransferWeights(0.5, 3.0)
    assert_close(scalar_map_g(1e300, w), 27.0, 1e-10, "g at huge x")


def test_scalar_map_out_of_range_names_the_map():
    """A value outside the double range raises an error that names g (or g')
    and the range, not the bare OverflowError(34, ...) of float **; at
    beta Jp = 300 iterating from x = 5 reaches one in two steps, and at
    beta Jp = -300, g'(0) = 3 c (d^2 - 1) / d^4 is about -3 e^2400."""
    w = derive_weights(couplings(1.0, 300.0, 1.0))
    with pytest.raises(OverflowError, match=r"^g\(7\.03471e\+160\) is outside the double range"):
        iterate_map(5.0, w)
    with pytest.raises(OverflowError, match=r"^g'\(0\) is outside the double range"):
        scalar_map_dg(0.0, derive_weights(couplings(1.0, -300.0, 1.0)))


def test_scalar_maps_return_every_finite_value():
    """g and g' return their value wherever it is a finite double, also
    where c d, a power or the denominator leaves the double range on the
    way; they raise their named error only where the value does."""
    w = TransferWeights(1e200, 1e200)   # c d = 1e400
    assert scalar_map_g(0.0, w) == 0.0   # d^-3 = 1e-600 underflows
    assert_close(scalar_map_g(1e-300, w), 1e-300, 1e-12, "g(1e-300)")
    with pytest.raises(OverflowError, match=r"^g\(0\.5\) is outside the double range"):
        scalar_map_g(0.5, w)
    assert_close(scalar_map_dg(1.0, TransferWeights(1.0, 1e100)), 3.0, 1e-12, "g'(1)")
    # (d + c x)^4 = 1e-328 underflows: 3 c (d^2 - 1) / d^4 = -3e28
    assert_close(scalar_map_dg(0.0, TransferWeights(1e-300, 1e-82)), -3e28, 1e-12, "g'(0)")
    # a subnormal (d + c x)^4 that kept a few bits; the value is from mpmath
    w = TransferWeights(2.685307147754759e-141, 1.5301368904835623e-81)
    assert_close(scalar_map_dg(2.5316215332759752e-111, w), -1.4695828644050358e+183,
                 1e-12, "g' at a subnormal (d + c x)^4")
    # the log-space fallback against 40-digit values over the accepted box
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    for lc, ld, lx in zip(*rng.uniform(-709.0, 709.0, (3, 400))):
        w, x = TransferWeights(math.exp(lc), math.exp(ld)), math.exp(lx)
        with mpmath.workdps(40):
            c, d, xx = mpmath.mpf(w.c), mpmath.mpf(w.d), mpmath.mpf(x)
            cases = ((scalar_map_g, ((1 + c * d * xx) / (d + c * xx)) ** 3),
                     (scalar_map_dg, 3 * c * (d * d - 1) * (1 + c * d * xx) ** 2
                      / (d + c * xx) ** 4))
        for f, true in cases:
            if abs(true) >= mpmath.ldexp(1, 1024):
                with pytest.raises(OverflowError, match="is outside the double range"):
                    f(x, w)
            elif abs(true) >= 2.0**-970:
                assert_close(f(x, w), float(true), 1e-12, f"{f.__name__} at {(lc, ld, lx)}")
            else:
                assert abs(f(x, w)) <= 2.0**-960


def test_first_derivative_vanishes_at_d_equal_one():
    w = TransferWeights(4.2, 1.0)
    assert scalar_map_dg(17.0, w) == 0.0
    # c x overflows, so the value comes from the log-space fallback's d = 1 case
    assert scalar_map_dg(1e10, TransferWeights(1e300, 1.0)) == 0.0


def test_first_derivative_keeps_its_digits_near_d_equal_one():
    """g' carries the factor d^2 - 1, which d * d - 1 would leave with only
    the bits of d - 1 that survive the square: 8 digits lost at d = 1 + 1e-8.
    Against 40-digit values at d = 1 +- 10^-k, the relative error stays at
    rounding level."""
    mpmath = pytest.importorskip("mpmath")
    for c, x in ((1.3, 0.7), (0.02, 35.0), (60.0, 0.004)):
        for k in range(2, 15):
            for d in (1.0 + 10.0**-k, 1.0 - 10.0**-k):
                with mpmath.workdps(40):
                    cc, dd, xx = mpmath.mpf(c), mpmath.mpf(d), mpmath.mpf(x)
                    true = 3 * cc * (dd * dd - 1) * (1 + cc * dd * xx) ** 2 / (dd + cc * xx) ** 4
                got = scalar_map_dg(x, TransferWeights(c, d))
                assert abs(got - float(true)) <= 1e-13 * abs(float(true)), (c, x, d)


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
