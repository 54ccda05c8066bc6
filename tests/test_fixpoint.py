"""Root finding, stability, threshold slopes, and count prediction for g."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivtree import (
    TransferWeights,
    couplings,
    critical_points,
    derive_weights,
    find_positive_fixed_points,
    iterate_map,
    predict_count,
    scalar_map_dg,
    scalar_map_g,
)

from conftest import (
    DECREASING_EXPECTED,
    DECREASING_POINT,
    NEGATIVE_T_EXPECTED,
    NEGATIVE_T_POINT,
    TANGENT_CASE,
    THREE_ROOT_EXPECTED,
    assert_close,
    classify_stability,
    closed_forms_agree,
    eta_closed_forms,
    quartic_coefficients,
    quartic_positive_roots,
)

weights_st = st.builds(
    TransferWeights.from_cd,
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
)


def decreasing_weights():
    return derive_weights(couplings(*DECREASING_POINT))


# --------------------------------------------------------------- the quartic


def test_quartic_coefficients_at_unit_weights():
    w = TransferWeights.from_cd(1.0, 1.0)
    coeffs = quartic_coefficients(w)
    assert coeffs.tolist() == [1.0, 2.0, 0.0, -2.0, -1.0]
    # that polynomial factors as (x - 1)(x + 1)^3
    assert np.polyval(coeffs, 1.0) == 0.0
    assert np.polyval(coeffs, -1.0) == 0.0


@given(w=weights_st)
def test_quartic_sign_structure_forces_a_positive_root(w):
    coeffs = quartic_coefficients(w)
    assert coeffs[0] > 0.0
    assert coeffs[-1] == -1.0


@given(w=weights_st, log_x=st.floats(-6.0, 6.0))
def test_quartic_is_the_cleared_form_of_the_map_gap(w, log_x):
    """x(d+cx)^3 - (1+cdx)^3 equals (x - g(x)) * (d+cx)^3, so the quartic
    and the map share their positive roots."""
    x = math.exp(log_x)
    poly = np.polyval(quartic_coefficients(w), x)
    gap = (x - scalar_map_g(x, w)) * (w.d + w.c * x) ** 3
    scale = x * (w.d + w.c * x) ** 3 + (1.0 + w.c * w.d * x) ** 3
    assert abs(poly - gap) <= 1e-9 * scale


# ------------------------------------------------------------- root finding


def test_three_root_reference_point(three_root_weights):
    report = find_positive_fixed_points(three_root_weights)
    assert report.count == 3
    assert_close(report.roots, THREE_ROOT_EXPECTED["roots"], 1e-9, "roots")
    assert list(report.roots) == sorted(report.roots)
    for r in report.roots:
        assert abs(scalar_map_g(r, three_root_weights) - r) < 1e-12 * max(1.0, r)


def test_bracketing_and_quartic_routes_agree(three_root_weights):
    report = find_positive_fixed_points(three_root_weights)
    quartic = quartic_positive_roots(three_root_weights)
    assert len(quartic) == report.count
    assert_close(quartic, report.roots, 1e-9, "two independent routes")


def test_single_root_points():
    rep = find_positive_fixed_points(decreasing_weights())
    assert rep.count == 1
    assert_close(rep.roots[0], DECREASING_EXPECTED["root"], 1e-9, "decreasing root")
    assert_close(rep.derivative[0], DECREASING_EXPECTED["derivative"], 1e-9)

    rep = find_positive_fixed_points(derive_weights(couplings(*NEGATIVE_T_POINT)))
    assert rep.count == 1
    assert_close(rep.roots[0], NEGATIVE_T_EXPECTED["root"], 1e-9, "negative-T root")


def test_unit_weights_root_is_one():
    rep = find_positive_fixed_points(TransferWeights.from_cd(1.0, 1.0))
    assert rep.count == 1
    assert abs(rep.roots[0] - 1.0) < 1e-12
    assert rep.stability == ("stable",)
    assert rep.derivative[0] == 0.0


@settings(max_examples=150)
@given(w=weights_st)
def test_root_count_bound_and_residuals(w):
    rep = find_positive_fixed_points(w)
    assert 1 <= rep.count <= 3
    assert rep.count == len(rep.roots) == len(rep.stability) == len(rep.derivative)
    for r in rep.roots:
        assert abs(scalar_map_g(r, w) - r) < 1e-10 * max(1.0, r)


@settings(max_examples=150)
@given(c=st.floats(0.05, 10.0), d=st.floats(0.05, 0.999))
def test_decreasing_regime_has_a_unique_root(c, d):
    assert find_positive_fixed_points(TransferWeights.from_cd(c, d)).count == 1


@settings(max_examples=100)
@given(w=weights_st)
def test_quartic_route_agrees_for_random_weights(w):
    rep = find_positive_fixed_points(w)
    quartic = quartic_positive_roots(w)
    assert len(quartic) == rep.count
    assert_close(quartic, rep.roots, 1e-9, "route agreement")


# ---------------------------------------------------------------- stability


def test_stability_pattern_at_three_root_point(three_root_weights):
    rep = find_positive_fixed_points(three_root_weights)
    assert rep.stability == ("stable", "unstable", "stable")
    assert_close(rep.derivative, THREE_ROOT_EXPECTED["derivatives"], 1e-9, "g' values")


def test_marginal_label_at_unit_derivative():
    from ivtree.fixpoint import FixedPointReport

    w = TransferWeights.from_cd(TANGENT_CASE["c"], TANGENT_CASE["d"])
    rep = classify_stability(
        FixedPointReport(roots=(TANGENT_CASE["x_tangent"],), stability=("",),
                         derivative=(0.0,), count=1),
        w,
    )
    assert rep.stability == ("marginal",)
    assert abs(rep.derivative[0] - 1.0) < 1e-7


# ---------------------------------------------------- thresholds and counts


def test_threshold_slopes_at_three_root_point(three_root_weights):
    th = critical_points(three_root_weights)
    assert th.regime == "multi-capable"
    assert_close(th.eta1, THREE_ROOT_EXPECTED["eta1"], 1e-9, "eta1")
    assert_close(th.eta2, THREE_ROOT_EXPECTED["eta2"], 1e-9, "eta2")
    assert_close((th.x_crit_1, th.x_crit_2), THREE_ROOT_EXPECTED["x_crit"], 1e-9)
    assert th.eta1 < 1.0 < th.eta2
    c, d = three_root_weights.c, three_root_weights.d
    assert closed_forms_agree(th, c, d)
    assert_close(eta_closed_forms(c, d)[0], th.eta1, 1e-9, "closed form eta1")


def test_threshold_quadratic_is_satisfied(three_root_weights):
    c, d = three_root_weights.c, three_root_weights.d
    th = critical_points(three_root_weights)
    for x in (th.x_crit_1, th.x_crit_2):
        assert abs(c * c * d * x * x - 2.0 * c * (d * d - 2.0) * x + d) < 1e-9


def test_discriminant_zero_collapses_the_critical_pair():
    w = TransferWeights.from_cd(0.8, 2.0)
    th = critical_points(w)
    # d = 2: both tangency abscissas coincide at (d^2-2)/(cd) = 1/c
    assert_close(th.x_crit_1, 1.0 / 0.8, 1e-9, "double point")
    assert_close(th.x_crit_2, th.x_crit_1, 1e-9)
    assert th.regime == "unique"


def test_no_thresholds_in_the_decreasing_regime():
    th = critical_points(decreasing_weights())
    assert th.regime == "unique"
    assert th.eta1 is None and th.eta2 is None


@settings(max_examples=100)
@given(c=st.floats(0.05, 10.0), d=st.floats(2.001, 10.0))
def test_multi_capable_thresholds_are_ordered(c, d):
    th = critical_points(TransferWeights.from_cd(c, d))
    assert th.regime == "multi-capable"
    assert 0.0 < th.eta1 < th.eta2
    assert 0.0 < th.x_crit_1 < th.x_crit_2
    assert closed_forms_agree(th, c, d)


def test_eta_values_scale_linearly_with_c():
    th1 = critical_points(TransferWeights.from_cd(0.9, 3.1))
    th2 = critical_points(TransferWeights.from_cd(1.8, 3.1))
    assert_close(th2.eta1, 2.0 * th1.eta1, 1e-12, "eta1 homogeneity")
    assert_close(th2.eta2, 2.0 * th1.eta2, 1e-12, "eta2 homogeneity")


def test_predicted_counts_at_reference_points(three_root_weights):
    n, reason = predict_count(three_root_weights)
    assert n == 3 and "eta1 < 1 < eta2" in reason
    n, reason = predict_count(decreasing_weights())
    assert n == 1 and "decreasing" in reason
    n, _ = predict_count(derive_weights(couplings(*NEGATIVE_T_POINT)))
    assert n == 1


@pytest.mark.parametrize("d", [1.0, 1.5, 2.0])
def test_predicted_count_in_the_intermediate_band(d):
    """1 <= d <= 2, both edges included: no closed-form rule applies, and
    the root search finds the one fixed point."""
    w = TransferWeights.from_cd(0.5, d)
    count = find_positive_fixed_points(w).count
    assert count == 1
    assert predict_count(w) == (
        count, "intermediate band 1 <= d <= 2: count from direct root search")


def test_tangency_case_predicts_two_roots():
    w = TransferWeights.from_cd(TANGENT_CASE["c"], TANGENT_CASE["d"])
    n, reason = predict_count(w)
    assert n == 2 and "tangency" in reason
    rep = find_positive_fixed_points(w)
    assert rep.count == 2
    assert_close(rep.roots[0], TANGENT_CASE["x_tangent"], 1e-6, "tangent root")
    assert_close(rep.roots[1], TANGENT_CASE["x_transversal"], 1e-9, "transversal root")


@pytest.mark.parametrize("eta, nudge, count", [("eta1", 5e-10, 1), ("eta1", -5e-10, 3),
                                                ("eta2", 5e-10, 3), ("eta2", -5e-10, 1)])
def test_predicted_count_uses_the_solver_tangency_band(eta, nudge, count):
    """eta_i = 1 + nudge at d = 5 (eta is linear in c): outside the solver's
    band |log eta_i| <= 1e-10, so the rule and the root search both give one
    or three roots, not a tangency."""
    at_unit_c = getattr(critical_points(TransferWeights.from_cd(1.0, 5.0)), eta)
    w = TransferWeights.from_cd((1.0 + nudge) / at_unit_c, 5.0)
    assert predict_count(w)[0] == find_positive_fixed_points(w).count == count


@pytest.mark.parametrize("c, d", [(1e-300, 1e100), (1e300, 1e100)])
def test_predicted_count_with_a_saturated_eta(c, d):
    """eta_1 underflows to 0 or eta_2 overflows to inf; neither is a
    tangency, and neither makes the rule raise."""
    th = critical_points(TransferWeights.from_cd(c, d))
    assert th.eta1 == 0.0 or th.eta2 == math.inf
    assert predict_count(TransferWeights.from_cd(c, d)) == (
        1, "multi-capable regime but 1 outside (eta1, eta2)")


def test_count_changes_only_through_a_tangency():
    """Nudging c across the tuned tangency flips the count 3 <-> 1, and at
    the change point one root has derivative 1."""
    c0, d = TANGENT_CASE["c"], TANGENT_CASE["d"]
    below = find_positive_fixed_points(TransferWeights.from_cd(c0 * (1 - 1e-3), d))
    above = find_positive_fixed_points(TransferWeights.from_cd(c0 * (1 + 1e-3), d))
    assert {below.count, above.count} == {1, 3}
    at = find_positive_fixed_points(TransferWeights.from_cd(c0, d))
    assert any(abs(dg - 1.0) < 1e-6 for dg in at.derivative)


# ---------------------------------------------------------------- iteration


def test_iteration_basins_at_three_root_point(three_root_weights):
    roots = find_positive_fixed_points(three_root_weights).roots
    up = iterate_map(5.0, three_root_weights)
    assert up.converged and len(up.trajectory) <= 201
    assert up.matched_root == roots[2]
    down = iterate_map(1.0, three_root_weights)
    assert down.converged
    assert down.matched_root == roots[0]


def test_iteration_near_unstable_root_moves_away(three_root_weights):
    roots = find_positive_fixed_points(three_root_weights).roots
    middle = roots[1]
    for eps in (1e-6, -1e-6):
        res = iterate_map(middle * (1.0 + eps), three_root_weights, max_iter=500)
        assert res.matched_root in (roots[0], roots[2])
        assert abs(res.limit - middle) > abs(middle * eps)


def test_iteration_near_stable_root_stays(three_root_weights):
    roots = find_positive_fixed_points(three_root_weights).roots
    res = iterate_map(roots[0] * 1.01, three_root_weights)
    assert res.converged and res.matched_root == roots[0]


def test_constant_map_converges_in_one_step():
    res = iterate_map(42.0, TransferWeights.from_cd(1.0, 1.0))
    assert res.trajectory[1] == 1.0
    assert res.converged and res.limit == 1.0 and res.matched_root is not None


def test_iteration_reports_non_convergence():
    w = derive_weights(couplings(*DECREASING_POINT))
    res = iterate_map(50.0, w, max_iter=2)
    assert not res.converged


def test_iteration_rejects_bad_start():
    with pytest.raises(ValueError):
        iterate_map(0.0, TransferWeights.from_cd(1.0, 1.0))
