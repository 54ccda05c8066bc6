"""Brute-force references that only the tests read.

The package states the recurrence in closed form; these are the
enumerations and the intermediate forms it is checked against:
- the semi-ball configurations and their eight permutation classes;
- the four-parameter field family with its inner components tied down;
- the enumerated branch sum and the 512-term semi-ball update sums, and
  the check of full_step against every one of them;
- the four-variable corner system and the cube identities that tie the
  inner components of a field to its corners.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ivtree import BoundaryFieldVector, CouplingParameters, TransferWeights, full_step
from ivtree._solver import CheckedRecord
from ivtree.recurrence import _SIGNS

# ------------------------------------------------- semi-ball classes (model)


class _SemiBallConfigurationFields(NamedTuple):
    center: int
    successors: tuple[int, int, int]


class SemiBallConfiguration(CheckedRecord, _SemiBallConfigurationFields):
    """Spins on a depth-1 semi-ball: center plus its ordered successor triple."""

    __slots__ = ()

    def __new__(cls, center: int, successors: tuple[int, int, int]):
        if any(s not in (-1, 1) for s in (center, *successors)) or len(successors) != 3:
            raise ValueError("spins must be +-1 with exactly three successors")
        return super().__new__(cls, center, successors)


class ConfigClass(NamedTuple):
    """One of the eight permutation classes of semi-ball configurations."""

    class_index: int
    sign: int


def class_index(center: int, minus_count: int) -> int:
    """Class index from the center spin and the number of -1 successors."""
    return (1 if center == 1 else 5) + minus_count


def classify_config(cfg: SemiBallConfiguration) -> ConfigClass:
    """Class index in 1..8 and the spin product of the four spins.

    Classes 1-4 have center spin +1 and 0..3 minus successors; classes 5-8
    repeat the pattern for center spin -1.  The index depends only on the
    multiset of successor spins.
    """
    minus = sum(1 for s in cfg.successors if s == -1)
    sign = cfg.center * cfg.successors[0] * cfg.successors[1] * cfg.successors[2]
    return ConfigClass(class_index=class_index(cfg.center, minus), sign=sign)


def field_form_from_pqrs(p: float, q: float, r: float, s: float) -> BoundaryFieldVector:
    """Four-parameter field family with the inner components tied down.

    h = (p, (q-2p)/3, (p-2q)/3, q, r, (s-2r)/3, (r-2s)/3, s): components 2, 3
    (and 6, 7) are fixed by the outer pair so that the cube identities
    3h_2 = h_4 - 2h_1 and 3h_3 = h_1 - 2h_4 hold by construction.
    """
    return BoundaryFieldVector(h=(
        float(p), (q - 2.0 * p) / 3.0, (p - 2.0 * q) / 3.0, float(q),
        float(r), (s - 2.0 * r) / 3.0, (r - 2.0 * s) / 3.0, float(s),
    ))


# ------------------------------------------------- enumerated sums (oracle)


def branch_sum(i: int, j: int, params: CouplingParameters,
               h: BoundaryFieldVector) -> float:
    """Leaf sum over one outermost semi-ball: center spin j, grandparent spin i.

    Sums exp(beta*J*j*S + beta*Jp*i*S + sign*h_class) over the eight spin
    triples with triple sum S.  This is the enumerated counterpart of the
    closed-form branch bracket.
    """
    hv = h.h
    total = 0.0
    for triple in itertools.product((1, -1), repeat=3):
        s = sum(triple)
        minus = triple.count(-1)
        idx = (0 if j == 1 else 4) + minus
        sign = j * triple[0] * triple[1] * triple[2]
        total += math.exp(params.beta * (params.J * j * s + params.Jp * i * s)
                          + sign * hv[idx])
    return total


def enumerated_semi_ball_sum(i: int, jvec: tuple[int, int, int], h: BoundaryFieldVector,
                             w: TransferWeights) -> float:
    """Defining sum for one semi-ball update: all 2^9 grandchild assignments.

    The semi-ball has center spin i and successor spins jvec; each successor
    carries three further spins.  The weight of an assignment is the product
    over the three branches of exp(beta*J*j_b*S_b + beta*Jp*i*S_b) times the
    branch's own class field factor u^sign, u = e^h.
    """
    u_arr = h.u
    factors = []
    for j in jvec:
        f = np.empty(8)
        for t_idx, triple in enumerate(itertools.product((1, -1), repeat=3)):
            s = sum(triple)
            minus = triple.count(-1)
            cls = (0 if j == 1 else 4) + minus
            sign = j * triple[0] * triple[1] * triple[2]
            f[t_idx] = (w.a ** (j * s)) * (w.b ** (i * s)) * (u_arr[cls] ** sign)
        factors.append(f)
    weights = factors[0][:, None, None] * factors[1][None, :, None] * factors[2][None, None, :]
    return float(weights.sum())


_CLASS_REPS = [(1, (1, 1, 1)), (1, (1, 1, -1)), (1, (1, -1, -1)), (1, (-1, -1, -1)),
               (-1, (1, 1, 1)), (-1, (1, 1, -1)), (-1, (1, -1, -1)), (-1, (-1, -1, -1))]


def verify_recurrence_by_enumeration(h: BoundaryFieldVector, w: TransferWeights) -> np.ndarray:
    """Relative mismatch of full_step's eight updates against their sums.

    full_step solves the classes 2, 4, 5, 7 for h_i itself, so its output
    is multiplied by the class sign first.  The enumerated side carries an
    unknown common normalization; it is fitted from the first class and
    divided out, so a zero residual vector means the recurrence reproduces
    the defining sums up to one shared constant.
    """
    closed = np.exp(_SIGNS * full_step(h, w).h)
    ratio = closed / np.array([enumerated_semi_ball_sum(i, jvec, h, w) for i, jvec in _CLASS_REPS])
    return np.abs(ratio / ratio[0] - 1.0)


# ------------------------------------------------- corner system (recurrence)


class _VVectorFields(NamedTuple):
    v1: float
    v4: float
    v5: float
    v8: float


class VVector(CheckedRecord, _VVectorFields):
    """Corner variables v_1, v_4, v_5, v_8 of the reduced four-equation system."""

    __slots__ = ()

    def __new__(cls, v1: float, v4: float, v5: float, v8: float):
        for v in (v1, v4, v5, v8):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError("v components must be positive finite")
        return super().__new__(cls, v1, v4, v5, v8)

    def as_array(self) -> np.ndarray:
        return np.array(self)


def check_identities(h_next: BoundaryFieldVector) -> np.ndarray:
    """Residuals of the four cube identities tying inner to corner components.

    Returns |exp(3 h2' + 2 h1' - h4') - 1| and the three analogous
    combinations; all vanish identically for any full_step output, whatever
    the gauge.
    """
    l = np.array(h_next.h)
    return np.abs(np.expm1(3.0 * l[[1, 2, 5, 6]] + 2.0 * l[[0, 3, 4, 7]] - l[[3, 0, 7, 4]]))


def reduced_step(v: VVector, w: TransferWeights) -> VVector:
    """One application of the four-variable corner system.

    v1' = R1^3        with R1 = (1 + (ab)^2 v1 v4) / (a b v4)
    1/v4' = R2^3      with R2 = (d + c v5 v8) / (a b v5)
    1/v5' = R3^3      with R3 = (d + c v1 v4) / (a b v4)
    v8' = R4^3        with R4 = (1 + (ab)^2 v5 v8) / (a b v5)

    Note the cross coupling: the (v4, v5) updates each mix the opposite
    corner pair.
    """
    c, d = w.c, w.d
    ab = w.a * w.b
    r1 = (1.0 + ab * ab * v.v1 * v.v4) / (ab * v.v4)
    r2 = (d + c * v.v5 * v.v8) / (ab * v.v5)
    r3 = (d + c * v.v1 * v.v4) / (ab * v.v4)
    r4 = (1.0 + ab * ab * v.v5 * v.v8) / (ab * v.v5)
    try:
        # a float ** that overflows raises; a product that does gives inf
        out = (r1**3, 1.0 / r2**3, 1.0 / r3**3, r4**3)
        if any(not (0 < x < math.inf) for x in out):
            raise OverflowError
    except OverflowError:
        raise OverflowError("reduced step out of representable range") from None
    return VVector(*out)
