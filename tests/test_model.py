"""Parameter handling, transfer weights, and the eight-class field vector."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ivtree import (
    BoundaryFieldVector,
    CouplingParameters,
    GridSpec,
    PhasePoint,
    TransferWeights,
    build_tree,
    find_positive_fixed_points,
    full_step,
    couplings,
    derive_weights,
    field_from_scalar,
)
from ivtree.model import INVERTED_CLASSES, class_sign, scalar_field_h

from conftest import NEGATIVE_T_POINT, THREE_ROOT_POINT, assert_close
from reference import (SemiBallConfiguration, VVector, class_index, classify_config,
                       field_form_from_pqrs)


def all_semi_ball_configs():
    for center in (1, -1):
        for triple in itertools.product((1, -1), repeat=3):
            yield SemiBallConfiguration(center=center, successors=triple)


def test_couplings_rejects_zero_temperature():
    with pytest.raises(ValueError):
        couplings(1.0, 1.0, 0.0)


def test_couplings_rejects_non_finite():
    with pytest.raises(ValueError):
        couplings(math.inf, 0.0, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        CouplingParameters(J=0.0, Jp=math.nan, T=1.0)


def test_beta_is_derived_from_t():
    assert CouplingParameters(1.0, 2.0, 4.0).beta == 0.25
    assert couplings(1.0, 2.0, 3.0)._replace(T=5.0).beta == 0.2
    with pytest.raises(TypeError):
        CouplingParameters(1.0, 2.0, 3.0, 99.0)


def test_negative_temperature_is_accepted():
    p = couplings(*NEGATIVE_T_POINT)
    assert p.beta == 1.0 / NEGATIVE_T_POINT[2] < 0


def test_zero_couplings_give_unit_weights():
    w = derive_weights(couplings(0.0, 0.0, 1.0))
    assert (w.a, w.b, w.c, w.d) == (1.0, 1.0, 1.0, 1.0)


def test_weights_at_reference_points():
    w = derive_weights(couplings(*THREE_ROOT_POINT))
    # d = e^{2*6.5/13} is exactly e
    assert_close(w.d, math.e, 1e-15, "d")
    assert_close(w.c, math.exp(2.0 * -1.7 / 13.0), 1e-15, "c")
    w2 = derive_weights(couplings(*NEGATIVE_T_POINT))
    assert_close(w2.c, 0.0955767119970859725, 1e-15, "c at negative T")


def test_overflow_raises_and_names_the_coupling():
    with pytest.raises(OverflowError, match="J"):
        derive_weights(couplings(400.0, 0.0, 1.0))
    with pytest.raises(OverflowError, match="Jp"):
        derive_weights(couplings(0.0, -400.0, 1.0))


def test_nan_log_weight_at_a_subnormal_temperature_is_rejected():
    """beta = 1/T is inf at a subnormal T, and beta * 0 is NaN: no weight."""
    with pytest.raises(OverflowError, match=r"^\|beta\*J\| = nan exceeds"):
        derive_weights(couplings(0.0, 0.0, 1e-320))


@given(st.floats(-50, 50), st.floats(-50, 50),
       st.floats(0.2, 50).flatmap(lambda t: st.sampled_from([t, -t])))
def test_weight_coherence(J, Jp, T):
    """c = a^2 and d = b^2 to full working precision."""
    w = derive_weights(couplings(J, Jp, T))
    assert w.c == w.a * w.a
    assert w.d == w.b * w.b
    assert w.a > 0 and w.b > 0
    assert abs(w.log_a - math.log(w.a)) <= 1e-12 * max(1.0, abs(w.log_a))


def test_weights_built_from_c_and_d_square_roots():
    w = TransferWeights(4.0, 9.0)
    assert (w.a, w.b) == (2.0, 3.0)
    assert TransferWeights._fields == ("c", "d")
    with pytest.raises(ValueError):
        TransferWeights(-1.0, 2.0)
    with pytest.raises(TypeError):
        TransferWeights(1.0, 1.0, 5.0, 5.0, 0.0, 0.0)


_CD_EDGES = (0.5, 1.0, 2.0, 2.5, 3.0, 1e280, math.exp(700.0), math.exp(-700.0))


def _weight_bit_sample():
    """Cells (J, Jp, T) with |beta J|, |beta Jp| <= 354 and both signs of T,
    uniform or log-uniform in beta J and beta Jp; built by exact float
    operations (ldexp, products) so the sample has the same bits anywhere."""
    rng = random.Random(16)
    bound = 354.0 * (1.0 - 2.0**-20)

    def beta_coupling():
        if rng.random() < 0.5:
            return rng.uniform(-bound, bound)
        return rng.choice((-1.0, 1.0)) * math.ldexp(bound * rng.random(), -rng.randrange(40))

    cells = [(354.0, -354.0, 1.0), (-354.0, 354.0, -1.0), (0.0, 0.0, 1.0)]
    for _ in range(4000):
        T = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.random(), rng.randrange(-12, 12))
        bj = beta_coupling()
        bjp = beta_coupling()
        cells.append((bj * T, bjp * T, T))
    return cells


def test_weight_bits_are_pinned():
    """sha256 over the repr of (a, b, c, d) of derive_weights on the sample,
    and of (a, b, c, d, log_a, log_b) of the records built from each sampled
    (c, d) and from every pair of _CD_EDGES.  Taken when the record still
    stored all six values, so a derive_weights record keeps the a and b it
    stored then (sqrt of the rounded square of a double returns it)."""
    derived, built = [], []
    for J, Jp, T in _weight_bit_sample():
        w = derive_weights(couplings(J, Jp, T))
        derived.append((w.a, w.b, w.c, w.d))
        v = TransferWeights(w.c, w.d)
        built.append((v.a, v.b, v.c, v.d, v.log_a, v.log_b))
    for c, d in itertools.product(_CD_EDGES, repeat=2):
        v = TransferWeights(c, d)
        built.append((v.a, v.b, v.c, v.d, v.log_a, v.log_b))
    assert hashlib.sha256(repr(derived).encode()).hexdigest() == (
        "3c76bdca5947be640dc1e481a96e4069d40d05557291edc2f86a371af906073e")
    assert hashlib.sha256(repr(built).encode()).hexdigest() == (
        "5ae4d133bd8a191039a27c9b4865fa0fce8aa04bfb7e6337fea3ab48c7b8c5d5")


def test_a_copy_with_a_new_c_is_the_record_built_from_it():
    """Every reader of a changed copy sees the same weights: the roots (read
    from c and d) and the eight-equation step (read from log_a and log_b)."""
    w = derive_weights(couplings(1.0, 2.0, 3.0))
    copy, fresh = w._replace(c=10.0), TransferWeights(10.0, w.d)
    assert find_positive_fixed_points(copy) == find_positive_fixed_points(fresh)
    h = BoundaryFieldVector(np.linspace(-1.0, 1.0, 8))
    assert full_step(h, copy) == full_step(h, fresh)


def test_sixteen_configurations_partition_into_eight_classes():
    counts = {}
    for cfg in all_semi_ball_configs():
        counts.setdefault(classify_config(cfg).class_index, 0)
        counts[classify_config(cfg).class_index] += 1
    assert sorted(counts) == list(range(1, 9))
    assert [counts[i] for i in range(1, 9)] == [1, 3, 3, 1, 1, 3, 3, 1]
    assert sum(counts.values()) == 16


def test_class_sign_is_the_spin_product():
    for cfg in all_semi_ball_configs():
        cls = classify_config(cfg)
        product = cfg.center * cfg.successors[0] * cfg.successors[1] * cfg.successors[2]
        assert cls.sign == product
        assert cls.sign == class_sign(cls.class_index)


def test_class_is_permutation_invariant():
    for cfg in all_semi_ball_configs():
        base = classify_config(cfg)
        for perm in itertools.permutations(cfg.successors):
            assert classify_config(
                SemiBallConfiguration(cfg.center, perm)
            ) == base


def test_classification_examples():
    assert classify_config(SemiBallConfiguration(1, (1, 1, 1))).class_index == 1
    assert classify_config(SemiBallConfiguration(1, (1, 1, 1))).sign == 1
    two = classify_config(SemiBallConfiguration(1, (1, 1, -1)))
    assert (two.class_index, two.sign) == (2, -1)
    eight = classify_config(SemiBallConfiguration(-1, (-1, -1, -1)))
    assert (eight.class_index, eight.sign) == (8, 1)
    assert class_index(-1, 0) == 5
    assert INVERTED_CLASSES == (2, 4, 5, 7)


def test_configuration_validation():
    with pytest.raises(ValueError):
        SemiBallConfiguration(0, (1, 1, 1))
    with pytest.raises(ValueError):
        SemiBallConfiguration(1, (1, 2, 1))
    with pytest.raises(ValueError):
        SemiBallConfiguration(center=1, successors=(1, 1))


def test_pqrs_zero_gives_zero_field():
    assert field_form_from_pqrs(0, 0, 0, 0).h == (0.0,) * 8


def test_pqrs_direct_substitution():
    h = field_form_from_pqrs(3.0, 0.0, 0.0, 3.0).h
    assert h == (3.0, -2.0, 1.0, 0.0, 0.0, 1.0, -2.0, 3.0)


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20))
def test_pqrs_ties_inner_components(p, q, r, s):
    h = field_form_from_pqrs(p, q, r, s).h
    assert abs(3.0 * h[1] - (h[3] - 2.0 * h[0])) < 1e-9
    assert abs(3.0 * h[2] - (h[0] - 2.0 * h[3])) < 1e-9
    assert abs(3.0 * h[5] - (h[7] - 2.0 * h[4])) < 1e-9
    assert abs(3.0 * h[6] - (h[4] - 2.0 * h[7])) < 1e-9


def test_field_from_scalar_examples():
    assert field_from_scalar(1.0).h == (0.0,) * 8
    h16 = field_from_scalar(16.0).h
    assert_close(h16[0], 9.0 * math.log(2.0), 1e-14, "h1 at x=16")
    assert_close(h16[3], 3.0 * math.log(2.0), 1e-14, "h4 at x=16")
    with pytest.raises(ValueError):
        field_from_scalar(0.0)
    with pytest.raises(ValueError):
        field_from_scalar(-2.0)


@given(st.floats(-25, 25))
def test_field_from_scalar_round_trip(log_x):
    """Reading x back as exp(4 h_4 / 3) recovers the input."""
    x = math.exp(log_x)
    h = field_from_scalar(x).h
    assert_close(math.exp(4.0 * h[3] / 3.0), x, 1e-12, "round trip")


def test_boundary_field_u_round_trip():
    rng = np.random.default_rng(5)
    u = np.exp(rng.uniform(-2, 2, 8))
    fv = BoundaryFieldVector.from_u(u)
    assert_close(fv.u, u, 1e-14, "u round trip")
    with pytest.raises(ValueError):
        BoundaryFieldVector.from_u(np.zeros(8))
    with pytest.raises(ValueError):
        BoundaryFieldVector(h=(0.0,) * 7)
    with pytest.raises(ValueError):
        BoundaryFieldVector(h=(0.0,) * 7 + (math.inf,))


def test_a_boundary_field_keeps_its_own_tuple_of_floats():
    """Any sequence of eight finite reals becomes a tuple of floats: a list
    changed after the check leaves the record as it was, and a record built
    from an array hashes and compares by value."""
    values = [0.5] * 8
    field = BoundaryFieldVector(values)
    values[0] = math.nan
    assert field.h == (0.5,) * 8
    with pytest.raises(TypeError):
        field.h[0] = math.nan
    from_array = BoundaryFieldVector(np.linspace(-1.0, 1.0, 8))
    assert all(type(v) is float for v in from_array.h)
    assert BoundaryFieldVector(np.zeros(8)) == BoundaryFieldVector([0.0] * 8)
    assert hash(BoundaryFieldVector(np.zeros(8))) == hash(BoundaryFieldVector((0.0,) * 8))
    # the three constructors keep their values
    assert field_form_from_pqrs(1, 2, 3, 4).h == (1.0, 0.0, -1.0, 2.0, 3.0, (4 - 6) / 3,
                                                  (3 - 8) / 3, 4.0)
    assert field_from_scalar(2.0).h == scalar_field_h(math.log(2.0))
    u = np.exp(np.linspace(-2.0, 2.0, 8))
    assert BoundaryFieldVector.from_u(u).h == tuple(np.log(u).tolist())


@pytest.mark.parametrize("record, change", [
    (couplings(1.0, 2.0, 3.0), {"T": 0.0}),
    (SemiBallConfiguration(1, (1, 1, 1)), {"center": 0}),
    (BoundaryFieldVector(h=(0.0,) * 8), {"h": (0.0,) * 7}),
    (BoundaryFieldVector(h=(0.0,) * 8), {"h": (0.0,) * 7 + (math.nan,)}),
    (VVector(1.0, 1.0, 1.0, 1.0), {"v8": math.inf}),
    (GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(1, 1, 1)), {"t": (math.nan, math.nan, 1)}),
    (couplings(1.0, 2.0, 3.0), {"beta": 0.5}),
    (TransferWeights(1.0, 3.0), {"c": -1.0}),
    (TransferWeights(1.0, 3.0), {"d": math.nan}),
    (TransferWeights(1.0, 3.0), {"a": 2.0}),
])
def test_a_changed_copy_of_a_checked_record_is_checked(record, change):
    """_replace runs the record's checks, as dataclasses.replace did."""
    with pytest.raises(ValueError):
        record._replace(**change)


@pytest.mark.parametrize("record, name", [
    (couplings(1.0, 2.0, 3.0), "beta"),
    (BoundaryFieldVector(h=(0.0,) * 8), "h"),
    (GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(1, 1, 1)), "t"),
    (PhasePoint(J=0.0, Jp=0.0, T=1.0), "error"),
    (build_tree(2), "n_vertices"),
    (TransferWeights(1.0, 3.0), "a"),
])
def test_records_are_read_only(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
