"""Exact finite-volume computations on the order-3 tree.

The Hamiltonian, partition function and Gibbs probabilities, by direct
enumeration (or by branch-factorized leaf sums where full enumeration is
infeasible), give an independent check on every closed-form recurrence
result.  Depth 2 means 2^13 = 8192 configurations.  The volumes, count
tables and bracket kernel live in the check kernel _check and are kept
here.  The enumerated branch and semi-ball update sums that the kernel and
full_step are checked against are test-side references
(tests/reference.py).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._check import (_MAX_DEPTH, CayleyTree, _feature_table, _log_brackets, build_tree,
                     consistency_residuals)
from .model import BoundaryFieldVector, CouplingParameters

# A spin configuration is a +-1 integer array over the volume's vertices.
SpinConfiguration = np.ndarray


def hamiltonian(cfg: SpinConfiguration, tree: CayleyTree,
                params: CouplingParameters) -> float:
    """-Jp * sum over prolonged pairs - J * sum over edges of the spin products."""
    cfg = np.asarray(cfg)
    if cfg.shape != (tree.n_vertices,):
        raise ValueError("configuration does not cover the volume")
    ex, ey = tree.edge_pairs()
    px, pz = tree.prolonged_pairs()
    nn = float(np.sum(cfg[ex] * cfg[ey]))
    nnn = float(np.sum(cfg[px] * cfg[pz])) if px.size else 0.0
    return -params.J * nn - params.Jp * nnn


def boundary_term(cfg: SpinConfiguration, tree: CayleyTree,
                  h: BoundaryFieldVector) -> float:
    """Sum over the outermost semi-balls of (spin product) * (class field)."""
    cfg = np.asarray(cfg)
    total = 0.0
    hv = h.h
    for x in tree.level(tree.depth - 1):
        kids = tree.successors(x)
        triple = cfg[list(kids)]
        minus = int(np.sum(triple == -1))
        idx = (0 if cfg[x] == 1 else 4) + minus
        sign = cfg[x] * triple[0] * triple[1] * triple[2]
        total += sign * hv[idx]
    return float(total)


def _log_partition_factorized(depth: int, params: CouplingParameters,
                              h: BoundaryFieldVector) -> float:
    """log Z by summing leaves first and exploiting branch independence."""
    if depth not in (2, 3):
        raise ValueError("factorized partition function supports depth 2 or 3")
    bj = params.beta * params.J
    coef = np.array((bj, params.beta * params.Jp) + tuple(h.h))
    # log_b[i, j] over (grandparent, center) spins, index 0 for spin +1
    log_b = _log_brackets(coef[:, None])[1][0]
    spin = np.array([1.0, -1.0])
    if depth == 3:
        # one level up, the bracket of (i, j) is the cube of the sum over
        # j's children k of exp(beta J j k + beta Jp i k) B(j, k)
        s = bj * spin + coef[1] * spin[:, None]
        log_b = 3.0 * np.logaddexp(s + log_b[:, 0], -s + log_b[:, 1])
    log_t = np.logaddexp(bj * spin + log_b[:, 0], -bj * spin + log_b[:, 1])
    return float(np.logaddexp(3.0 * log_t[0], 3.0 * log_t[1]))


class FiniteVolumeMeasure(NamedTuple):
    """Exact Gibbs measure on V_n with the boundary-field exponent.

    Depth 1 and 2 keep the full log-weight and probability tables; depth 3
    keeps only log Z (computed by leaf summation) and serves probabilities
    per configuration on demand.
    """

    tree: CayleyTree
    params: CouplingParameters
    h: BoundaryFieldVector
    log_Z: float
    log_weights: np.ndarray | None = None
    probability_table: np.ndarray | None = None

    def probabilities(self) -> np.ndarray:
        """Probability table over all 2^N configurations (depth <= 2 only);
        read-only."""
        if self.probability_table is None:
            raise ValueError("no explicit table at this depth; use probability()")
        return self.probability_table

    def log_weight(self, cfg: SpinConfiguration) -> float:
        energy = hamiltonian(cfg, self.tree, self.params)
        return -self.params.beta * energy + boundary_term(cfg, self.tree, self.h)

    def probability(self, cfg: SpinConfiguration) -> float:
        return math.exp(self.log_weight(cfg) - self.log_Z)


def finite_measure(tree: CayleyTree, params: CouplingParameters,
                   h: BoundaryFieldVector) -> FiniteVolumeMeasure:
    if tree.depth > _MAX_DEPTH:
        raise ValueError(f"finite_measure supports depth <= {_MAX_DEPTH}")
    if tree.depth <= 2:
        coef = np.array((params.beta * params.J, params.beta * params.Jp) + tuple(h.h))
        lw = _feature_table(tree.depth) @ coef
        m = lw.max()
        # one exp serves both the normalizer and the probability table
        weights = np.exp(lw - m)
        total = weights.sum()
        weights /= total
        weights.flags.writeable = False
        return FiniteVolumeMeasure(tree=tree, params=params, h=h,
                                   log_Z=m + math.log(total), log_weights=lw,
                                   probability_table=weights)
    log_z = _log_partition_factorized(3, params, h)
    return FiniteVolumeMeasure(tree=tree, params=params, h=h, log_Z=log_z)


def kolmogorov_consistency_check(params: CouplingParameters,
                                 h: BoundaryFieldVector) -> float:
    """The consistency residual of one field: the one-column case of
    consistency_residuals."""
    coef = (params.beta * params.J, params.beta * params.Jp) + tuple(h.h)
    return float(consistency_residuals(np.array(coef)[:, None])[0])
