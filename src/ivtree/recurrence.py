"""Recurrence maps relating boundary fields at successive tree depths.

Marginalizing the depth-n measure over its outermost spins turns the eight
class fields u_1..u_8 at depth n into new values at depth n-1.  Each updated
component is a product of three "branch brackets" B(i, j): the leaf sums
over a successor's own spin triple.  full_step reads log B(i, j) from the
oracle's vectorized kernel (oracle._log_brackets), its one home.  A common
gauge factor (a partition-function ratio) multiplies every equation; it is
physically irrelevant and is carried here as an explicit output so callers
can work with gauge-free combinations.

The eight equations collapse further: cube identities pin u_2, u_3, u_6, u_7
in terms of the corner components, the corner system reduces to four
variables (v_1, v_4, v_5, v_8 with u_i = v_i^3), and on the invariant set
v_1 = v_4^3, v_8 = v_5^3 with v_4^4 = v_5^4 = x everything contracts to the
scalar rational map g.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import CheckedRecord, TransferWeights, class_sign

_EQUATION_NAMES = ("u1'", "u2'", "u3'", "u4'", "u5'", "u6'", "u7'", "u8'")


class _UVectorFields(NamedTuple):
    u1: float
    u2: float
    u3: float
    u4: float
    u5: float
    u6: float
    u7: float
    u8: float


class UVector(CheckedRecord, _UVectorFields):
    """The eight exponentiated class fields u_i = e^{h_i}, all positive."""

    __slots__ = ()

    def __new__(cls, u1: float, u2: float, u3: float, u4: float,
                u5: float, u6: float, u7: float, u8: float):
        for v in (u1, u2, u3, u4, u5, u6, u7, u8):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError("u components must be positive finite")
        return super().__new__(cls, u1, u2, u3, u4, u5, u6, u7, u8)

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, arr) -> "UVector":
        arr = np.asarray(arr, dtype=float)
        return cls(*arr.tolist())


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


def full_step(u: UVector, w: TransferWeights, gauge: float = 1.0) -> tuple[UVector, float]:
    """One application of the eight-equation map.

    Every equation carries the same gauge prefactor; with gauge = 1 the raw
    bracket products are returned.  Components whose defining equation is
    stated for the reciprocal (classes 2, 4, 5, 7) are solved for u_i itself.
    Raises OverflowError naming the first equation whose result cannot be
    represented.
    """
    # imported here, so a --curve run, which loads this module for g,
    # leaves the oracle unloaded
    from .oracle import _log_brackets

    if not (gauge > 0 and math.isfinite(gauge)):
        raise ValueError("gauge must be positive finite")
    coef = np.array([w.log_a, w.log_b, *np.log(u.as_array())])
    lb = _log_brackets(coef[:, None])[1][0]
    log_gauge = math.log(gauge)

    out = np.empty(8)
    for k in range(8):
        center, minus = divmod(k, 4)
        log_rhs = log_gauge + (3 - minus) * lb[center, 0] + minus * lb[center, 1]
        val = class_sign(k + 1) * log_rhs
        if abs(val) > 709.0:
            raise OverflowError(f"{_EQUATION_NAMES[k]} is out of range (log value {val:.4g})")
        out[k] = math.exp(val)
    return UVector.from_array(out), gauge


def check_identities(u_next: UVector) -> np.ndarray:
    """Residuals of the four cube identities tying inner to corner components.

    Returns |u2'^3 u1'^2 / u4' - 1| and the three analogous combinations;
    all vanish identically for any full_step output, whatever the gauge.
    """
    l = np.log(u_next.as_array())
    combos = np.array([
        3.0 * l[1] + 2.0 * l[0] - l[3],
        3.0 * l[2] + 2.0 * l[3] - l[0],
        3.0 * l[5] + 2.0 * l[4] - l[7],
        3.0 * l[6] + 2.0 * l[7] - l[4],
    ])
    return np.abs(np.expm1(combos))


def reduced_step(v: VVector, w: TransferWeights, gauge: float = 1.0) -> tuple[VVector, float]:
    """One application of the four-variable corner system.

    v1' = gauge * R1^3        with R1 = (1 + (ab)^2 v1 v4) / (a b v4)
    1/v4' = gauge * R2^3      with R2 = (d + c v5 v8) / (a b v5)
    1/v5' = gauge * R3^3      with R3 = (d + c v1 v4) / (a b v4)
    v8' = gauge * R4^3        with R4 = (1 + (ab)^2 v5 v8) / (a b v5)

    The gauge here is the cube root of the full-step gauge.  Note the cross
    coupling: the (v4, v5) updates each mix the opposite corner pair.
    """
    if not (gauge > 0 and math.isfinite(gauge)):
        raise ValueError("gauge must be positive finite")
    c, d = w.c, w.d
    ab = w.a * w.b
    r1 = (1.0 + ab * ab * v.v1 * v.v4) / (ab * v.v4)
    r2 = (d + c * v.v5 * v.v8) / (ab * v.v5)
    r3 = (d + c * v.v1 * v.v4) / (ab * v.v4)
    r4 = (1.0 + ab * ab * v.v5 * v.v8) / (ab * v.v5)
    try:
        # a float ** that overflows raises; a product that does gives inf
        out = (gauge * r1**3, 1.0 / (gauge * r2**3), 1.0 / (gauge * r3**3), gauge * r4**3)
        if any(not (0 < x < math.inf) for x in out):
            raise OverflowError
    except OverflowError:
        raise OverflowError("reduced step out of representable range") from None
    return VVector(*out), gauge


def _power_overflow(name: str, x: float) -> OverflowError:
    """The error of a float ** that overflows, with the map named."""
    return OverflowError(f"{name}({x:.6g}) is outside the double range "
                         "(Numerical result out of range)")


def scalar_map_g(x: float, w: TransferWeights) -> float:
    """The scalar map g(x) = ((1 + c d x) / (d + c x))^3 on x >= 0."""
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    c, d = w.c, w.d
    if x <= 1.0:
        ratio = (1.0 + c * d * x) / (d + c * x)
    else:
        # divided form avoids overflow of c*d*x for large x
        ratio = (1.0 / x + c * d) / (d / x + c)
    try:
        return ratio**3
    except OverflowError:
        raise _power_overflow("g", x) from None


def scalar_map_dg(x: float, w: TransferWeights) -> float:
    """First derivative g'(x) = 3c(d^2-1)(1+cdx)^2 / (d+cx)^4."""
    c, d = w.c, w.d
    try:
        return 3.0 * c * (d * d - 1.0) * (1.0 + c * d * x) ** 2 / (d + c * x) ** 4
    except OverflowError:
        raise _power_overflow("g'", x) from None
