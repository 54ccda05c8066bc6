"""Physical parameters, transfer weights, and boundary-field representations.

An Ising model with nearest-neighbor coupling J and prolonged next-nearest-
neighbor coupling Jp lives on the semi-infinite Cayley tree of order 3: every
vertex has three direct successors, and the prolonged pairs are
(vertex, grandchild) pairs along successor chains.  The finite-volume measure
carries one boundary field value per depth-1 semi-ball (a vertex plus its
three successors).  The sixteen semi-ball spin patterns collapse to eight
classes under permutations of the successor triple; everything downstream
works with the eight-component field vector.

The records are named tuples.  A record with a check on its values runs it
in the __new__ of a thin subclass of its field tuple (a NamedTuple body
cannot define __new__), with CheckedRecord first among its bases.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# classes 2, 4, 5, 7 have spin product -1: their field enters the measure
# exponent with a minus sign, and their recurrence equations are stated for
# the reciprocal of the updated variable
INVERTED_CLASSES = (2, 4, 5, 7)

# largest |log weight| that still exponentiates to a finite double (c = a^2
# needs 2*beta*J <= log(DBL_MAX) ~ 709.8)
_MAX_LOG_WEIGHT = 354.0


class CheckedRecord:
    """Base of a record whose __new__ checks its values: _make, and with it
    _replace, builds the record through __new__, so a copy is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _CouplingParametersFields(NamedTuple):
    J: float
    Jp: float
    T: float


class CouplingParameters(CheckedRecord, _CouplingParametersFields):
    """Couplings (J, Jp), temperature T, and beta = 1/T (Boltzmann constant k = 1).

    beta is derived from T, not stored, so a copy with a new T has its beta.
    Negative temperatures are meaningful here (they just flip the sign of
    beta); only T = 0 is rejected.
    """

    __slots__ = ()

    def __new__(cls, J: float, Jp: float, T: float):
        if T == 0.0:
            raise ValueError("temperature must be nonzero")
        if not (math.isfinite(J) and math.isfinite(Jp) and math.isfinite(T)):
            raise ValueError("couplings and temperature must be finite")
        return super().__new__(cls, J, Jp, T)

    @property
    def beta(self) -> float:
        return 1.0 / self.T


def couplings(J: float, Jp: float, T: float) -> CouplingParameters:
    """CouplingParameters of the three values as floats."""
    return CouplingParameters(float(J), float(Jp), float(T))


class TransferWeights(NamedTuple):
    """Exponentiated couplings a = e^{beta J}, b = e^{beta Jp}, c = a^2, d = b^2.

    log_a and log_b are kept alongside so that enumeration code can stay in
    log space for extreme couplings.
    """

    a: float
    b: float
    c: float
    d: float
    log_a: float
    log_b: float

    @classmethod
    def from_cd(cls, c: float, d: float) -> "TransferWeights":
        """Weights from the squared pair (c, d) directly; c, d > 0."""
        if not (c > 0 and d > 0 and math.isfinite(c) and math.isfinite(d)):
            raise ValueError("c and d must be positive finite")
        a, b = math.sqrt(c), math.sqrt(d)
        return cls(a=a, b=b, c=c, d=d, log_a=math.log(a), log_b=math.log(b))


def coupling_weight(name: str, log_weight: float) -> float:
    """e^log_weight for log_weight = beta * coupling (a for J, b for Jp).

    Raises OverflowError when its square (c or d) would not fit in a double,
    or when log_weight is NaN (beta = inf at a subnormal T times a zero
    coupling).  derive_weights and the grid scanner both go through here, so
    a scan's weights are bit-for-bit those of derive_weights.
    """
    if not abs(log_weight) <= _MAX_LOG_WEIGHT:
        raise OverflowError(
            f"|beta*{name}| = {abs(log_weight):.6g} exceeds the representable range"
        )
    return math.exp(log_weight)


def derive_weights(params: CouplingParameters) -> TransferWeights:
    """Transfer weights for the given couplings.

    Raises OverflowError when c = e^{2 beta J} or d = e^{2 beta Jp} would not
    fit in a double (J is checked first); scans over extreme beta must catch
    this per grid cell.
    """
    log_a = params.beta * params.J
    log_b = params.beta * params.Jp
    a = coupling_weight("J", log_a)
    b = coupling_weight("Jp", log_b)
    return TransferWeights(a=a, b=b, c=a * a, d=b * b, log_a=log_a, log_b=log_b)


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


def class_sign(index: int) -> int:
    return -1 if index in INVERTED_CLASSES else 1


class _BoundaryFieldVectorFields(NamedTuple):
    h: tuple[float, float, float, float, float, float, float, float]


class BoundaryFieldVector(CheckedRecord, _BoundaryFieldVectorFields):
    """Eight collapsed boundary-field values h_1..h_8 (class order)."""

    __slots__ = ()

    def __new__(cls, h: tuple[float, float, float, float, float, float, float, float]):
        if len(h) != 8 or any(not math.isfinite(v) for v in h):
            raise ValueError("h must be eight finite reals")
        return super().__new__(cls, h)

    @property
    def u(self) -> np.ndarray:
        """Exponentiated fields u_i = exp(h_i), all positive."""
        return np.exp(np.asarray(self.h, dtype=float))

    @classmethod
    def from_u(cls, u) -> "BoundaryFieldVector":
        u = np.asarray(u, dtype=float)
        if u.shape != (8,) or np.any(u <= 0):
            raise ValueError("u must be eight positive reals")
        return cls(h=tuple(np.log(u)))


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


def scalar_field_h(t):
    """h_1..h_8 of the field encoded by x = e^t, as field_form_from_pqrs
    forms them from (p, q, r, s) = (2.25 t, 0.75 t, 0.75 t, 2.25 t).

    t may be a float or an array; the arithmetic is elementwise, so every
    entry has the bits of the float case.
    """
    # h_1 = ln v_1^3 = (9/4) ln x,  h_4 = ln v_4^3 = (3/4) ln x; symmetric tail
    p, q = 2.25 * t, 0.75 * t
    outer, inner = (q - 2.0 * p) / 3.0, (p - 2.0 * q) / 3.0
    return (p, outer, inner, q, q, inner, outer, p)


def field_from_scalar(x: float) -> BoundaryFieldVector:
    """Boundary field encoded by the single scalar x > 0.

    Sets v_4 = v_5 = x^{1/4}, v_1 = v_4^3, v_8 = v_5^3 and u_i = v_i^3 for
    i in {1, 4, 5, 8}; the remaining components come from field_form_from_pqrs
    with (p, q, r, s) = (h_1, h_4, h_5, h_8) (see scalar_field_h).  The
    scalar can be read back as x = exp(4 h_4 / 3).
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError("x must be positive finite")
    return BoundaryFieldVector(h=scalar_field_h(math.log(x)))
