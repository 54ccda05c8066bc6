"""Brute-force finite-volume checks: trees, measures, consistency, enumeration."""

import itertools
import math

import numpy as np
import pytest

from ivtree import (
    BoundaryFieldVector,
    CayleyTree,
    TransferWeights,
    build_tree,
    couplings,
    derive_weights,
    field_from_scalar,
    find_positive_fixed_points,
    finite_measure,
    hamiltonian,
    kolmogorov_consistency_check,
)
from ivtree._check import _feature_table, _log_brackets, _spin_table, consistency_residuals
from ivtree.oracle import _log_partition_factorized, boundary_term

from conftest import NEGATIVE_T_POINT, THREE_ROOT_POINT, assert_close
from conftest import run_python
from reference import (branch_sum, enumerated_semi_ball_sum, field_form_from_pqrs,
                       verify_recurrence_by_enumeration)


def spin_index(cfg: np.ndarray) -> int:
    """Row index of a configuration in the enumeration table."""
    n = cfg.size
    return int(sum((1 << (n - 1 - v)) for v in range(n) if cfg[v] == -1))


# -------------------------------------------------------------------- trees


def test_tree_sizes():
    assert build_tree(1).n_vertices == 4
    assert build_tree(2).n_vertices == 13
    assert build_tree(3).n_vertices == 40


def test_tree_depth_validation():
    for bad in (0, 4, 5, -1):
        with pytest.raises(ValueError):
            build_tree(bad)
    build_tree(3)  # upper edge is allowed


def test_levels_and_successors():
    t = build_tree(2)
    assert list(t.level(0)) == [0]
    assert list(t.level(1)) == [1, 2, 3]
    assert list(t.level(2)) == list(range(4, 13))
    assert t.successors(0) == (1, 2, 3)
    assert t.successors(2) == (7, 8, 9)
    for x in range(1, 13):
        assert x in t.successors(t.parent(x))


def test_pair_inventories():
    t2 = build_tree(2)
    ex, ey = t2.edge_pairs()
    assert ex.size == 12  # 3 + 9 edges inside V_2
    px, pz = t2.prolonged_pairs()
    assert px.size == 9   # root to each level-2 vertex
    assert np.all(px == 0)
    t3 = build_tree(3)
    assert t3.edge_pairs()[0].size == 39
    assert t3.prolonged_pairs()[0].size == 36  # 9 from the root + 27 below
    # every prolonged pair is grandparent-grandchild along successor chains
    px3, pz3 = t3.prolonged_pairs()
    for x, z in zip(px3, pz3):
        assert t3.parent(t3.parent(int(z))) == int(x)


def test_depth_one_tree_has_no_prolonged_pairs():
    px, pz = build_tree(1).prolonged_pairs()
    assert px.size == 0
    assert hamiltonian(np.ones(4), build_tree(1), couplings(0.0, 5.0, 1.0)) == 0.0


# -------------------------------------------------------------- Hamiltonian


def test_all_plus_energy_counts_the_pairs():
    J, Jp, T = THREE_ROOT_POINT
    t = build_tree(2)
    assert_close(
        hamiltonian(np.ones(13), t, couplings(J, Jp, T)),
        -12.0 * J - 9.0 * Jp, 1e-13, "all-plus energy",
    )


def test_zero_couplings_zero_energy():
    t = build_tree(2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        cfg = rng.choice([-1, 1], size=13)
        assert hamiltonian(cfg, t, couplings(0.0, 0.0, 1.0)) == 0.0


def test_root_flip_energy_difference():
    J, Jp = 1.3, 0.7
    p = couplings(J, Jp, 1.0)
    t = build_tree(2)
    base = hamiltonian(np.ones(13), t, p)
    flipped = np.ones(13)
    flipped[0] = -1
    # the root sits on 3 edges and all 9 prolonged pairs
    assert_close(hamiltonian(flipped, t, p) - base, 2.0 * J * 3.0 + 2.0 * Jp * 9.0,
                 1e-13, "root flip")


def test_hamiltonian_rejects_wrong_size():
    with pytest.raises(ValueError):
        hamiltonian(np.ones(5), build_tree(2), couplings(1.0, 1.0, 1.0))


@pytest.mark.parametrize("entry", [2, 3, 0, -2, 0.5, math.nan])
def test_configurations_take_only_plus_and_minus_one(entry):
    """hamiltonian, and the measure's log_weight and probability through it,
    reject any other entry (boundary_term would read it as -1)."""
    t, p = build_tree(2), couplings(1.0, 1.0, 1.0)
    cfg = np.ones(13)
    cfg[5] = entry
    m = finite_measure(t, p, field_from_scalar(2.0))
    for call in (lambda: hamiltonian(cfg, t, p), lambda: m.log_weight(cfg),
                 lambda: m.probability(cfg)):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            call()


# ----------------------------------------------------------------- measures


def test_spin_table_is_built_once_and_read_only():
    """Every row against shift-and-mask: bit n-1-v of the row index is
    vertex v, and bit 0 means +1."""
    for n in (4, 13):
        table = _spin_table(n)
        assert _spin_table(n) is table
        assert table.dtype == np.int8 and table.shape == (2**n, n)
        bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
        assert np.array_equal(table, 1 - 2 * bits)
        with pytest.raises(ValueError):
            table[0, 0] = -1


def test_feature_table_is_built_once_per_depth_and_read_only():
    """The one count table: cached, read-only, column-major float64, and
    integer-valued, every count in -12..12."""
    for depth, rows in ((1, 16), (2, 8192)):
        table = _feature_table(depth)
        assert _feature_table(depth) is table
        assert table.dtype == np.float64 and table.shape == (rows, 10)
        assert table.flags.f_contiguous
        assert np.array_equal(table, np.round(table)) and np.abs(table).max() <= 12
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_a_checked_scan_never_enumerates_the_depth_two_volume():
    """In a fresh process, after a checked scan, the first call of each
    depth-2 table builder misses its cache: the check never built the
    8192-row spin or feature table."""
    script = ("from ivtree import GridSpec, scan_grid\n"
              "from ivtree import _check\n"
              "scan_grid(GridSpec(j=(-3, 3, 5), jp=(-3, 7, 5), t=(13, 13, 1)),\n"
              "          check_consistency=True)\n"
              "for build, arg in ((_check._spin_table, 13), (_check._feature_table, 2)):\n"
              "    misses = build.cache_info().misses\n"
              "    build(arg)\n"
              "    print(build.cache_info().misses - misses)\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_feature_table_weights_match_the_per_configuration_route():
    """Table rows against hamiltonian + boundary_term, for random couplings
    and random eight-component fields (not only fixed-point fields)."""
    rng = np.random.default_rng(41)
    for depth, rows in ((1, np.arange(16)), (2, rng.choice(8192, 256, replace=False))):
        t = build_tree(depth)
        n = t.n_vertices
        for _ in range(4):
            J, Jp = rng.uniform(-5.0, 5.0, 2)
            p = couplings(J, Jp, rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0))
            h = BoundaryFieldVector(h=tuple(rng.uniform(-3.0, 3.0, 8)))
            m = finite_measure(t, p, h)
            scale = np.max(np.abs(m.log_weights))
            for row in rows:
                cfg = np.array([-1 if (row >> (n - 1 - v)) & 1 else 1 for v in range(n)])
                assert abs(m.log_weights[row] - m.log_weight(cfg)) <= 1e-12 * scale


def test_measure_normalization_depths_one_and_two(three_root_params):
    h = field_from_scalar(2.0)
    for depth in (1, 2):
        m = finite_measure(build_tree(depth), three_root_params, h)
        p = m.probabilities()
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_probability_table_is_the_normalized_exponential(three_root_params):
    """The one exponential behind log Z is also the probability table."""
    for depth in (1, 2):
        for x in (0.07, 2.85, 7.93):
            m = finite_measure(build_tree(depth), three_root_params, field_from_scalar(x))
            p = m.probabilities()
            assert not p.flags.writeable
            assert_close(p, np.exp(m.log_weights - m.log_Z), 1e-13, "table vs exp")


def test_zero_couplings_uniform_measure():
    p = couplings(0.0, 0.0, 1.0)
    h = field_form_from_pqrs(0.0, 0.0, 0.0, 0.0)
    m = finite_measure(build_tree(2), p, h)
    assert_close(m.probabilities(), np.full(2**13, 2.0**-13), 1e-12, "uniform")
    assert kolmogorov_consistency_check(p, h) < 1e-15


def test_gibbs_ratio_between_single_flip_pairs(three_root_params):
    """P(c1)/P(c2) = exp(-beta dH + d(boundary)) for any single-spin flip."""
    t = build_tree(2)
    h = field_from_scalar(0.7)
    m = finite_measure(t, three_root_params, h)
    probs = m.probabilities()
    rng = np.random.default_rng(11)
    for _ in range(20):
        cfg = rng.choice([-1, 1], size=13)
        flip = cfg.copy()
        v = rng.integers(0, 13)
        flip[v] = -flip[v]
        lhs = probs[spin_index(cfg)] / probs[spin_index(flip)]
        dH = hamiltonian(cfg, t, three_root_params) - hamiltonian(flip, t, three_root_params)
        dB = boundary_term(cfg, t, h) - boundary_term(flip, t, h)
        rhs = math.exp(-three_root_params.beta * dH + dB)
        assert_close(lhs, rhs, 1e-11, "single-flip ratio")


def test_depth_two_partition_function_factorizes(three_root_params):
    h = field_from_scalar(1.8)
    m = finite_measure(build_tree(2), three_root_params, h)
    assert abs(_log_partition_factorized(2, three_root_params, h) - m.log_Z) < 1e-12


def test_depth_three_partition_function_against_semi_enumeration():
    """Independent route to log Z_3: enumerate the 2^13 inner spins exactly
    and close each of the nine outermost balls with its leaf sum."""
    for point, x in ((THREE_ROOT_POINT, 7.93), (NEGATIVE_T_POINT, 3.0)):
        p = couplings(*point)
        h = field_from_scalar(x)
        t2 = build_tree(2)
        spins = _spin_table(13)
        ex, ey = t2.edge_pairs()
        px, pz = t2.prolonged_pairs()
        energy = (-p.J * (spins[:, ex] * spins[:, ey]).sum(axis=1)
                  - p.Jp * (spins[:, px] * spins[:, pz]).sum(axis=1))
        logw = -p.beta * energy
        lookup = np.array([[math.log(branch_sum(i, j, p, h)) for j in (1, -1)]
                           for i in (1, -1)])
        for x_v in range(4, 13):
            par = (x_v - 1) // 3
            i_idx = ((1.0 - spins[:, par]) / 2.0).astype(int)
            j_idx = ((1.0 - spins[:, x_v]) / 2.0).astype(int)
            logw = logw + lookup[i_idx, j_idx]
        m = logw.max()
        semi = m + math.log(np.exp(logw - m).sum())
        assert abs(semi - _log_partition_factorized(3, p, h)) < 1e-11


def test_depth_three_measure_is_implicit(three_root_params):
    h = field_from_scalar(2.0)
    m = finite_measure(build_tree(3), three_root_params, h)
    assert m.log_weights is None
    with pytest.raises(ValueError):
        m.probabilities()
    cfg = np.ones(40)
    assert 0.0 < m.probability(cfg) < 1.0


def test_finite_measure_depth_guard(three_root_params):
    with pytest.raises(ValueError):
        finite_measure(CayleyTree(depth=4), three_root_params, field_from_scalar(1.0))
    for depth in (1, 4):
        with pytest.raises(ValueError, match="supports depth 2 or 3"):
            _log_partition_factorized(depth, three_root_params, field_from_scalar(1.0))


# -------------------------------------------------------------- consistency


def test_consistency_at_every_fixed_point(three_root_params):
    from ivtree import derive_weights

    w = derive_weights(three_root_params)
    for root in find_positive_fixed_points(w).roots:
        res = kolmogorov_consistency_check(three_root_params, field_from_scalar(root))
        assert res < 1e-10


def test_consistency_fails_for_generic_fields(three_root_params):
    rng = np.random.default_rng(17)
    for _ in range(3):
        h = BoundaryFieldVector(h=tuple(rng.uniform(-1.0, 1.0, 8)))
        assert kolmogorov_consistency_check(three_root_params, h) > 1e-3
    # the four-parameter family alone is not sufficient either
    h = field_form_from_pqrs(0.3, -0.2, 0.15, 0.4)
    assert kolmogorov_consistency_check(three_root_params, h) > 1e-3


def random_consistency_cases(seed: int, draws: int, coupling: float = 5.0,
                             t_range: tuple[float, float] = (0.2, 4.0)):
    """(params, field) pairs at random couplings, both signs of T: every
    fixed-point field of the draw and one generic field.  J and Jp are
    uniform in [-coupling, coupling] and |T| in t_range; a draw with a
    fixed point outside the double range gives its generic field only."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(draws):
        J, Jp = rng.uniform(-coupling, coupling, 2)
        p = couplings(J, Jp, rng.choice([-1.0, 1.0]) * rng.uniform(*t_range))
        try:
            roots = find_positive_fixed_points(derive_weights(p)).roots
        except OverflowError:
            roots = ()
        cases += [(p, field_from_scalar(r)) for r in roots]
        cases.append((p, BoundaryFieldVector(h=tuple(rng.uniform(-3.0, 3.0, 8)))))
    return cases


def coefficient_block(cases) -> np.ndarray:
    return np.array([(p.beta * p.J, p.beta * p.Jp) + tuple(h.h) for p, h in cases]).T


def test_batched_residuals_match_the_per_configuration_marginals():
    """The merged batch against the full 8192-row depth-2 measure summed
    over leaves and the depth-1 measure, at fixed-point and generic fields."""
    cases = random_consistency_cases(seed=29, draws=40)
    batch = consistency_residuals(coefficient_block(cases))
    generic = 0
    for (p, h), res in zip(cases, batch.tolist()):
        p2 = finite_measure(build_tree(2), p, h).probabilities()
        p1 = finite_measure(build_tree(1), p, h).probabilities()
        reference = np.max(np.abs(p2.reshape(16, 512).sum(axis=1) - p1))
        assert abs(res - reference) <= 1e-14
        generic += reference > 1e-3
    assert generic == 40 and len(cases) > 80


def test_residuals_match_the_per_configuration_marginals_at_large_couplings():
    """The brute-force comparison above with |beta J| and |beta Jp| into
    the hundreds, both signs of T.  Log weights then reach the thousands,
    and one ulp of them moves a probability by about 1e-13 in the residual
    and in the 8192-row reference alike, hence the looser bound."""
    cases = random_consistency_cases(seed=43, draws=40, coupling=60.0, t_range=(0.2, 1.0))
    coef = coefficient_block(cases)
    assert np.abs(coef[:2]).max() > 200.0 and len(cases) > 80
    assert any(p.T < 0 for p, _ in cases) and any(p.T > 0 for p, _ in cases)
    batch = consistency_residuals(coef)
    for (p, h), res in zip(cases, batch.tolist()):
        p2 = finite_measure(build_tree(2), p, h).probabilities()
        p1 = finite_measure(build_tree(1), p, h).probabilities()
        reference = np.max(np.abs(p2.reshape(16, 512).sum(axis=1) - p1))
        assert abs(res - reference) <= 1e-12


def test_a_residual_does_not_depend_on_its_block():
    """Bits of each root alone, in the whole batch, in chunks of 7 and
    tiled into one 4096-column block; the one-field check is the
    one-column case."""
    cases = random_consistency_cases(seed=31, draws=20)
    coef = coefficient_block(cases)
    batch = consistency_residuals(coef)
    alone = [consistency_residuals(coef[:, i:i + 1])[0] for i in range(len(cases))]
    chunked = np.concatenate([consistency_residuals(coef[:, s:s + 7])
                              for s in range(0, len(cases), 7)])
    assert batch.tobytes() == np.array(alone).tobytes() == chunked.tobytes()
    tiled = consistency_residuals(np.tile(coef, 4096 // len(cases) + 1)[:, :4096])
    assert tiled.tobytes() == np.resize(batch, 4096).tobytes()
    assert [kolmogorov_consistency_check(p, h) for p, h in cases] == batch.tolist()


# -------------------------------------------------------------- enumeration


def test_enumerated_sum_trivial_weights():
    w = TransferWeights(1.0, 1.0)
    h = BoundaryFieldVector((0.0,) * 8)
    assert enumerated_semi_ball_sum(1, (1, 1, 1), h, w) == 512.0


def test_enumerated_sum_is_permutation_invariant():
    rng = np.random.default_rng(23)
    w = TransferWeights(0.7, 2.3)
    h = BoundaryFieldVector(rng.uniform(-1, 1, 8))
    for jvec in itertools.permutations((1, 1, -1)):
        assert_close(
            enumerated_semi_ball_sum(-1, jvec, h, w),
            enumerated_semi_ball_sum(-1, (1, 1, -1), h, w),
            1e-14, "branch permutation",
        )


def test_recurrence_matches_enumeration_for_random_draws():
    rng = np.random.default_rng(29)
    for _ in range(25):
        w = TransferWeights(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
        h = BoundaryFieldVector(rng.uniform(-2, 2, 8))
        assert np.all(verify_recurrence_by_enumeration(h, w) < 1e-12)


def test_branch_sum_equals_the_closed_bracket():
    """The bracket kernel against the enumerated leaf sum at the reference
    points and at drawn fixed-point and generic fields; a column's brackets
    have the same bits alone and inside a block."""
    cases = [(couplings(*THREE_ROOT_POINT), field_from_scalar(1.3)),
             (couplings(*NEGATIVE_T_POINT), field_from_scalar(3.0))]
    cases += random_consistency_cases(seed=31, draws=4)
    coef = coefficient_block(cases)
    block = _log_brackets(coef)[1]
    for col, (p, h) in enumerate(cases):
        alone = _log_brackets(coef[:, col:col + 1])[1][0]
        assert np.array_equal(alone, block[col])
        for a, i in enumerate((1, -1)):
            for b, j in enumerate((1, -1)):
                assert_close(alone[a, b], math.log(branch_sum(i, j, p, h)),
                             1e-12, f"case {col} bracket ({i},{j})")
