"""Physical parameters, transfer weights, and boundary-field representations.

An Ising model with nearest-neighbor coupling J and prolonged next-nearest-
neighbor coupling Jp lives on the semi-infinite Cayley tree of order 3: every
vertex has three direct successors, and the prolonged pairs are
(vertex, grandchild) pairs along successor chains.  The finite-volume measure
carries one boundary field value per depth-1 semi-ball (a vertex plus its
three successors).  The sixteen semi-ball spin patterns collapse to eight
classes under permutations of the successor triple; everything downstream
works with the eight-component field vector.  The couplings enter only
through the squared weights c = e^{2 beta J} and d = e^{2 beta Jp}, the two
values a TransferWeights record holds.

The records are named tuples.  A record with a check on its values runs it
in the __new__ of a thin subclass of its field tuple (a NamedTuple body
cannot define __new__), with CheckedRecord first among its bases.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._solver import CheckedRecord, coupling_weight, scalar_field_h

# classes 2, 4, 5, 7 have spin product -1: their field enters the measure
# exponent with a minus sign, and their recurrence equations are stated for
# the reciprocal of the updated variable
INVERTED_CLASSES = (2, 4, 5, 7)


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


class _TransferWeightsFields(NamedTuple):
    c: float
    d: float


class TransferWeights(CheckedRecord, _TransferWeightsFields):
    """Squared weights c = a^2 = e^{2 beta J} and d = b^2 = e^{2 beta Jp}.

    The map g and the count rule depend on the couplings only through c and
    d, so the record holds those two, positive and finite.  a = sqrt(c),
    b = sqrt(d) and their logs are derived, not stored, so a copy with a new
    c or d has the a, b, log_a and log_b that belong to it.
    """

    __slots__ = ()

    def __new__(cls, c: float, d: float):
        if not (c > 0 and d > 0 and math.isfinite(c) and math.isfinite(d)):
            raise ValueError("c and d must be positive finite")
        return super().__new__(cls, c, d)

    @property
    def a(self) -> float:
        return math.sqrt(self.c)

    @property
    def b(self) -> float:
        return math.sqrt(self.d)

    @property
    def log_a(self) -> float:
        return math.log(self.a)

    @property
    def log_b(self) -> float:
        return math.log(self.b)


def derive_weights(params: CouplingParameters) -> TransferWeights:
    """Transfer weights for the given couplings.

    Raises OverflowError when c = e^{2 beta J} or d = e^{2 beta Jp} would not
    fit in a double (J is checked first); scans over extreme beta must catch
    this per grid cell.  The record's a is e^{beta J} to the bit, since the
    square root of the rounded square of a double returns it; its log_a =
    log(a) may differ from beta J by the rounding of a, at most 2^-53.
    """
    return TransferWeights(coupling_weight("J", params.beta * params.J),
                           coupling_weight("Jp", params.beta * params.Jp))


def class_sign(index: int) -> int:
    return -1 if index in INVERTED_CLASSES else 1


class _BoundaryFieldVectorFields(NamedTuple):
    h: tuple[float, float, float, float, float, float, float, float]


class BoundaryFieldVector(CheckedRecord, _BoundaryFieldVectorFields):
    """Eight collapsed boundary-field values h_1..h_8 (class order), kept as a tuple of floats."""

    __slots__ = ()

    def __new__(cls, h: tuple[float, float, float, float, float, float, float, float]):
        h = tuple(h)
        if len(h) != 8 or any(not math.isfinite(v) for v in h):
            raise ValueError("h must be eight finite reals")
        return super().__new__(cls, tuple(map(float, h)))

    @property
    def u(self) -> np.ndarray:
        """Exponentiated fields u_i = exp(h_i), all positive."""
        return np.exp(self.h)

    @classmethod
    def from_u(cls, u) -> "BoundaryFieldVector":
        u = np.asarray(u, dtype=float)
        if u.shape != (8,) or not np.all(np.isfinite(u) & (u > 0)):
            raise ValueError("u must be eight positive finite reals")
        return cls(np.log(u))


def field_from_scalar(x: float) -> BoundaryFieldVector:
    """Boundary field encoded by the single scalar x > 0.

    Sets v_4 = v_5 = x^{1/4}, v_1 = v_4^3, v_8 = v_5^3 and u_i = v_i^3 for
    i in {1, 4, 5, 8}; the inner components follow from the cube identities
    3h_2 = h_4 - 2h_1, 3h_3 = h_1 - 2h_4 and their center -1 twins (see
    scalar_field_h).  The scalar can be read back as x = exp(4 h_4 / 3).
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError("x must be positive finite")
    return BoundaryFieldVector(h=scalar_field_h(math.log(x)))
