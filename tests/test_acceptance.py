"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible under pytest -s, and in the failure report otherwise).  All
tolerances are pinned in the assertions.  Timing limits are generous for
current hardware; they guard against algorithmic regressions, not noise.
"""

import time

import numpy as np

from ivtree import (
    BoundaryFieldVector,
    GridSpec,
    TransferWeights,
    couplings,
    derive_weights,
    emit_csv,
    field_from_scalar,
    find_positive_fixed_points,
    full_step,
    iterate_map,
    kolmogorov_consistency_check,
    scalar_map_dg,
    scalar_map_g,
    scan_grid,
)
from ivtree.scanner import evaluate_point

from conftest import (DECREASING_EXPECTED, DECREASING_POINT, THREE_ROOT_EXPECTED,
                      THREE_ROOT_POINT, eta_closed_forms, scalar_map_d2g)
from reference import check_identities, field_form_from_pqrs, verify_recurrence_by_enumeration

EPS = float(np.finfo(float).eps)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} - {detail}")
    assert ok, f"{name}: {detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_acceptance_01_three_roots_and_agreeing_root_oracles():
    """J=-1.7, Jp=6.5, T=13 has exactly three positive fixed points.

    The solver must agree to 1e-9 on every root with the 40-digit mpmath
    roots frozen in conftest, and a single solve must finish within 10 ms.
    """
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    best = min(_timed(find_positive_fixed_points, w) for _ in range(5))
    rep = find_positive_fixed_points(w)

    ok = rep.count == 3
    frozen = max(_rel(r, e) for r, e in zip(rep.roots, THREE_ROOT_EXPECTED["roots"])) if ok else float("inf")
    ok = ok and frozen < 1e-9 and best < 0.010
    _verdict(
        "three roots, 40-digit oracle",
        ok,
        f"count={rep.count} gap to frozen mpmath roots={frozen:.2e} best={best * 1e3:.2f} ms",
    )


def _displayed(roots):
    return (round(roots[0], 2), round(roots[1], 1), round(roots[2], 2))


def test_acceptance_01_displayed_root_values():
    """The three roots display as 0.07, 2.9, 7.93 at (2, 1, 2) decimals.

    The expected display is the same rounding of the 40-digit mpmath roots
    frozen in conftest, so it is tied to the independent oracle and not to
    the float output.  This test used to pin the recorded values 0.06,
    2.8, 8.02, which no couplings can give: with y = x^(1/3), g(x) = x is
    c y^4 - c d y^3 + d y - 1 = 0, whose roots satisfy e2 = 0 and
    e3 = e1 e4 (Vieta) for every c, d > 0, and the recorded triple breaks
    e3 = e1 e4 everywhere in its rounding box (next test).  The
    machine-precision assertions live in the test above and in
    test_fixpoint.py.
    """
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    shown = _displayed(find_positive_fixed_points(w).roots)
    oracle = _displayed(THREE_ROOT_EXPECTED["roots"])
    ok = shown == oracle == (0.07, 2.9, 7.93)
    _verdict("displayed root values", ok, f"computed rounds to {shown}, mpmath to {oracle}")


# Roots that display as the old recorded (0.06, 2.8, 8.02) lie in this box.
RECORDED_DISPLAY_BOX = ((0.055, 0.065), (2.75, 2.85), (8.015, 8.025))


def _vieta_terms(y1, y2, y3):
    """(A, B, s1) with s1^2 (e3 - e1 e4) = A - B for the y-quartic.

    y1, y2, y3 are its positive roots and the fourth, -s2/s1, is forced by
    e2 = 0; the s_k are the elementary symmetric functions of y1, y2, y3.
    Then A = s1^2 s3 (1 + s2) and B = s2^2 (s1 + s3) both increase in
    every y, which makes A(hi) - B(lo) an upper bound over a box.
    """
    s1 = y1 + y2 + y3
    s2 = y1 * y2 + y1 * y3 + y2 * y3
    s3 = y1 * y2 * y3
    return s1 * s1 * s3 * (1 + s2), s2 * s2 * (s1 + s3), s1


def _vieta_residual(x1, x2, x3):
    a, b, s1 = _vieta_terms(np.cbrt(x1), np.cbrt(x2), np.cbrt(x3))
    return (a - b) / (s1 * s1)


def test_acceptance_01_recorded_display_values_are_unattainable():
    """No fixed-point triple of g displays as 0.06, 2.8, 8.02.

    The y-quartic residual e3 - e1 e4 vanishes at the frozen mpmath roots,
    peaks at about -0.082 on a grid over the recorded rounding box, and is
    bounded above by -0.05 on the whole box: A(hi) - B(lo) over 64 x 8 x 1
    sub-boxes is negative everywhere, so e3 = e1 e4 has no solution there.
    """
    control = _vieta_residual(*THREE_ROOT_EXPECTED["roots"])
    axes = [np.linspace(lo, hi, 21) for lo, hi in RECORDED_DISPLAY_BOX]
    sampled = _vieta_residual(*np.meshgrid(*axes, indexing="ij")).max()

    edges = [np.cbrt(np.linspace(lo, hi, k + 1)) for (lo, hi), k in zip(RECORDED_DISPLAY_BOX, (64, 8, 1))]
    a_hi, _, s1_hi = _vieta_terms(*np.meshgrid(*[e[1:] for e in edges], indexing="ij"))
    _, b_lo, _ = _vieta_terms(*np.meshgrid(*[e[:-1] for e in edges], indexing="ij"))
    upper = a_hi - b_lo
    # where upper < 0, the residual (A - B) / s1^2 <= upper / s1_hi^2
    bound = (upper / (s1_hi * s1_hi)).max()
    ok = abs(control) < 1e-12 and sampled < -0.08 and upper.max() < 0 and bound < -0.05
    _verdict(
        "recorded display unattainable",
        ok,
        f"residual at mpmath roots={control:.1e} box max sampled={sampled:.4f} enclosed<={bound:.4f}",
    )


def test_acceptance_02_stability_pattern_and_iteration_basins():
    """The three roots are (stable, unstable, stable) and plain iteration
    from x0 = 1 and x0 = 5 lands on the outer roots within 200 steps at
    tol 1e-12."""
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    rep = find_positive_fixed_points(w)
    low = iterate_map(1.0, w, max_iter=200, tol=1e-12)
    high = iterate_map(5.0, w, max_iter=200, tol=1e-12)
    ok = (
        rep.stability == ("stable", "unstable", "stable")
        and low.converged and low.matched_root == rep.roots[0]
        and high.converged and high.matched_root == rep.roots[2]
        and len(low.trajectory) <= 201 and len(high.trajectory) <= 201
    )
    _verdict(
        "stability and basins",
        ok,
        f"labels={rep.stability} x0=1 -> {low.limit:.6g} ({len(low.trajectory) - 1} steps), "
        f"x0=5 -> {high.limit:.6g} ({len(high.trajectory) - 1} steps)",
    )


def test_acceptance_03_negative_temperature_point_has_one_root():
    """J=6.75, Jp=1.95, T=-5.75 yields a single root and no transition."""
    p = evaluate_point(6.75, 1.95, -5.75)
    ok = p.error is None and p.root_count == 1 and p.phase_transition is False
    _verdict(
        "negative temperature point",
        ok,
        f"root_count={p.root_count} phase_transition={p.phase_transition} d={p.d:.4f}",
    )


def test_acceptance_04_decreasing_map_point_oracle_agreement():
    """J = Jp = -1.045, T = 6.55 sits in the d < 1 regime where g is
    decreasing and the fixed point is unique.  The acceptance condition is
    that the solver finds one root, within 1e-9 of the 40-digit mpmath root
    frozen in conftest."""
    w = derive_weights(couplings(*DECREASING_POINT))
    rep = find_positive_fixed_points(w)
    gap = _rel(rep.roots[0], DECREASING_EXPECTED["root"]) if rep.count == 1 else float("inf")
    ok = w.d < 1.0 and rep.count == 1 and gap < 1e-9
    _verdict(
        "decreasing-map oracle agreement",
        ok,
        f"d={w.d:.4f} count={rep.count} gap to frozen mpmath root={gap:.2e}",
    )


def test_acceptance_05_randomized_count_rule_sweep():
    """200 random points with d < 1 have one root each; for 200 random
    points with d > 2 the threshold-slope rule (three roots exactly when the
    closed-form etas give eta1 < 1 < eta2, one otherwise) matches the root
    finder exactly, with both counts drawn.  The whole sweep must finish
    within 5 s."""
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        w = TransferWeights(10.0 * (1.0 - rng.random()), float(rng.uniform(0.01, 0.999)))
        if find_positive_fixed_points(w).count != 1:
            mismatches += 1
    predicted_counts = []
    for _ in range(200):
        w = TransferWeights(10.0 * (1.0 - rng.random()), float(rng.uniform(2.001, 10.0)))
        eta1, eta2 = eta_closed_forms(w.c, w.d)
        predicted_counts.append(3 if eta1 < 1.0 < eta2 else 1)
        if predicted_counts[-1] != find_positive_fixed_points(w).count:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    three = predicted_counts.count(3)
    ok = mismatches == 0 and 0 < three < 200 and elapsed < 5.0
    _verdict("randomized count rule", ok, f"mismatches={mismatches}/400 "
             f"three-root={three}/200 elapsed={elapsed:.2f} s")


def test_acceptance_06_closed_form_updates_match_enumeration():
    """100 random (couplings, field) draws: the eight closed-form updates
    agree with the brute-force 2^9-term sums to 1e-12, within 2 s."""
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = couplings(
            float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(5, 15))
        )
        h = BoundaryFieldVector(rng.uniform(-1, 1, 8))
        worst = max(worst, float(verify_recurrence_by_enumeration(h, derive_weights(params)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 2.0
    _verdict("enumeration agreement", ok, f"worst residual={worst:.2e} elapsed={elapsed:.2f} s")


def test_acceptance_07_cube_identities_hold_after_every_step():
    """100 random draws: the four cube identities of the updated vector
    hold to 1e-10."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        w = TransferWeights(10.0 * (1.0 - rng.random()), 10.0 * (1.0 - rng.random()))
        h = BoundaryFieldVector(rng.uniform(-2, 2, 8))
        worst = max(worst, float(check_identities(full_step(h, w)).max()))
    ok = worst < 1e-10
    _verdict("cube identities", ok, f"worst residual={worst:.2e}")


def test_acceptance_08_exact_marginalization_at_fixed_points():
    """At J=-1.7, Jp=6.5, T=13 every fixed-point field passes the depth-2
    vs depth-1 marginalization check to 1e-10 (under 1 s per check), and
    generic fields fail it by more than 1e-3."""
    params = couplings(*THREE_ROOT_POINT)
    w = derive_weights(params)
    residuals, times = [], []
    for root in find_positive_fixed_points(w).roots:
        t0 = time.perf_counter()
        residuals.append(kolmogorov_consistency_check(params, field_from_scalar(root)))
        times.append(time.perf_counter() - t0)

    rng = np.random.default_rng(17)
    bad = [
        kolmogorov_consistency_check(params, BoundaryFieldVector(h=tuple(rng.uniform(-1, 1, 8)))),
        kolmogorov_consistency_check(params, field_form_from_pqrs(0.3, -0.2, 0.15, 0.4)),
    ]
    ok = max(residuals) < 1e-10 and max(times) < 1.0 and min(bad) > 1e-3
    _verdict(
        "exact marginalization",
        ok,
        f"fixed-point residuals<={max(residuals):.2e} in <={max(times) * 1e3:.0f} ms, "
        f"generic fields>={min(bad):.2e}",
    )


def test_acceptance_09_derivatives_match_finite_differences():
    """1000 random (c, d, x) samples with c, d in (0, 10] and x in [0, 100]:
    g' and g'' agree with 5-point central stencils to 1e-6 relative.

    Stencil steps scale with the distance to the pole at x = -d/c, and the
    evaluation point shifts to keep the stencil inside x > 0.  Near d = 1
    the map degenerates toward the constant 1 and both derivatives vanish
    identically, so a relative comparison is ill-posed there; the seed is
    chosen to sample the generic region (the property-based test in
    test_recurrence.py covers the degenerate band with floored scales).
    """
    rng = np.random.default_rng(55501)
    worst1 = worst2 = 0.0
    for _ in range(1000):
        c = 10.0 * (1.0 - rng.random())
        d = 10.0 * (1.0 - rng.random())
        x = 100.0 * rng.random()
        w = TransferWeights(c, d)
        gap = x + d / c
        for h, exact_fn, order in (
            (EPS ** 0.2 * gap, scalar_map_dg, 1),
            (EPS ** (1.0 / 6.0) * gap, scalar_map_d2g, 2),
        ):
            xe = max(x, 2.0 * h)
            g = [scalar_map_g(xe + k * h, w) for k in (-2, -1, 0, 1, 2)]
            exact = exact_fn(xe, w)
            if order == 1:
                fd = (g[0] - 8 * g[1] + 8 * g[3] - g[4]) / (12 * h)
                worst1 = max(worst1, abs(fd - exact) / abs(exact))
            else:
                fd = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
                worst2 = max(worst2, abs(fd - exact) / abs(exact))
    ok = worst1 < 1e-6 and worst2 < 1e-6
    _verdict("derivative stencils", ok, f"worst rel: g'={worst1:.2e} g''={worst2:.2e}")


def test_acceptance_10_grid_scan_is_deterministic_and_finds_transitions():
    """The 21 x 21 grid over J in [-3, 3], Jp in [-3, 7] at T = 13 emits
    byte-identical CSV across repeated runs and across worker counts,
    contains at least one transition cell, and finishes within 5 s."""
    spec = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(13, 13, 1))
    t0 = time.perf_counter()
    points = scan_grid(spec)
    text = emit_csv(points)
    elapsed = time.perf_counter() - t0
    again = emit_csv(scan_grid(spec))
    parallel = emit_csv(scan_grid(spec, workers=4))
    transitions = sum(1 for p in points if p.phase_transition)
    ok = text == again == parallel and transitions >= 1 and elapsed < 5.0
    _verdict(
        "deterministic grid scan",
        ok,
        f"{len(points)} cells, {transitions} transitions, serial run {elapsed:.2f} s, "
        f"repeat identical={text == again}, workers identical={text == parallel}",
    )


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
