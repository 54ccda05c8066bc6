"""Recurrence maps relating boundary fields at successive tree depths.

Marginalizing the depth-n measure over its outermost spins turns the eight
class fields h_1..h_8 at depth n into new values at depth n-1: each is the
log of a product of three "branch brackets" B(i, j), the leaf sums over a
successor's own spin triple, which full_step reads from the check kernel
(_check._log_brackets), their one home.  A gauge C (a partition-function
ratio) adds s_k log C to h_k, s_k the class sign.

The eight equations collapse further: cube identities pin h_2, h_3, h_6, h_7
in terms of the corner components, the corner system reduces to four
variables (v_1, v_4, v_5, v_8 with e^{h_i} = v_i^3), and on the invariant
set v_1 = v_4^3, v_8 = v_5^3 with v_4^4 = v_5^4 = x everything contracts to
the scalar rational map g, which scalar_map_g and scalar_map_dg evaluate.
The corner system and the cube identities are test-side references
(tests/reference.py), checked there against full_step.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BoundaryFieldVector, TransferWeights, class_sign

# class sign s_k and minus-successor count m_k of the eight classes
_SIGNS = np.array([class_sign(k) for k in range(1, 9)], dtype=float)
_MINUS = np.arange(8) % 4


def full_step(h: BoundaryFieldVector, w: TransferWeights) -> BoundaryFieldVector:
    """One application of the eight-equation map, in log space.

    h'_k = s_k ((3 - m_k) log B(c_k, +) + m_k log B(c_k, -)) for class k
    with center spin c_k, m_k minus successors and class sign s_k: the
    classes 2, 4, 5, 7 (s_k = -1) state their equation for the reciprocal.
    The brackets are log-sum-exps, so h' is finite wherever the kernel is;
    an h' outside the double range raises OverflowError.
    """
    # imported here, so a --curve run, which loads this module for g,
    # leaves the check kernel unloaded
    from ._check import _log_brackets

    coef = np.array((w.log_a, w.log_b) + h.h)
    with np.errstate(over="ignore", invalid="ignore"):
        lb = _log_brackets(coef[:, None])[1][0].repeat(4, axis=0)
        h_next = _SIGNS * ((3 - _MINUS) * lb[:, 0] + _MINUS * lb[:, 1])
    if not np.isfinite(h_next).all():
        raise OverflowError("full_step: h' is outside the double range")
    return BoundaryFieldVector(h_next)


def _finite(name: str, x: float, f, *args) -> float:
    """f(*args) where it is a finite double, else an OverflowError that names
    the map (float ** and math.exp raise one on overflow, but pass inf on)."""
    try:
        value = f(*args)
    except OverflowError:
        value = math.inf
    if not abs(value) < math.inf:
        raise OverflowError(f"{name}({x:.6g}) is outside the double range "
                            "(Numerical result out of range)")
    return value


def _ratio(x: float, c: float, d: float) -> float:
    """(1 + c d x) / (d + c x), the cube root of g, formed without overflow:
    divided through by x for x > 1, and by d where c d overflows (c, d > 1)."""
    cd = c * d
    if cd == math.inf:
        return ((1.0 / d + c * x) / (1.0 + c / d * x) if x <= 1.0
                else (1.0 / (d * x) + c) / (1.0 / x + c / d))
    return (1.0 + cd * x) / (d + c * x) if x <= 1.0 else (1.0 / x + cd) / (d / x + c)


def scalar_map_g(x: float, w: TransferWeights) -> float:
    """The scalar map g(x) = ((1 + c d x) / (d + c x))^3 on x >= 0, wherever it
    is a finite double (0.0 where it underflows); elsewhere an OverflowError."""
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    return _finite("g", x, pow, _ratio(x, w.c, w.d), 3)


def scalar_map_dg(x: float, w: TransferWeights) -> float:
    """First derivative g'(x) = 3c(d^2-1)(1+cdx)^2 / (d+cx)^4 on x >= 0, wherever
    it is a finite double (0.0 where it underflows); elsewhere an OverflowError."""
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    c, d = w.c, w.d
    try:
        den = (d + c * x) ** 4
        # (d - 1)(d + 1) keeps d^2 - 1 to the last bits near d = 1, where
        # d * d - 1 cancels and d - 1 is exact
        dg = 3.0 * c * ((d - 1.0) * (d + 1.0)) * (1.0 + c * d * x) ** 2 / den
        # a subnormal den (below 2^-1022) has lost bits
        if math.isfinite(dg) and den >= 2.0**-1022:
            return dg
    except (OverflowError, ZeroDivisionError):
        pass
    # a term left the double range: g' = 3 c (d^2 - 1) (N / D)^2 / D^2 in logs,
    # with N / D = _ratio, D = d + c x and |d^2 - 1| = e^{2 max(ld, 0)} (1 - e^{-2 |ld|})
    if d == 1.0:
        return 0.0
    lc, ld = math.log(c), math.log(d)
    log_den = np.logaddexp(ld, lc + math.log(x)) if x > 0 else ld
    log_dg = (math.log(3.0) + lc + 2.0 * (math.log(_ratio(x, c, d)) - log_den)
              + 2.0 * max(ld, 0.0) + math.log(-math.expm1(-2.0 * abs(ld))))
    return math.copysign(_finite("g'", x, math.exp, log_dg), d - 1.0)
