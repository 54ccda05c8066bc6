"""Exact finite-volume computations on the order-3 tree.

Everything here is brute force on purpose: the Hamiltonian, partition
function, and Gibbs probabilities are evaluated by direct enumeration (or by
branch-factorized leaf sums where full enumeration is infeasible), giving an
independent check on every closed-form recurrence result.  Depth 2 means
2^13 = 8192 configurations, which is the workhorse scale for the Kolmogorov
consistency check.

The check runs on a merged depth-2 table.  Configurations with the same
inner spins (vertices 0..3) and the same count row (E, P, M_1..M_8) have the
same log weight, so the 8192 rows collapse to 560 distinct ones, each
carrying its multiplicity (up to 81; 512 per inner configuration).  The
merge is pure counting over the enumerated table.  consistency_residuals
checks a (10, m) block of coefficients (beta J, beta Jp, h_1..h_8) at once,
one residual per column; kolmogorov_consistency_check is its one-column
case.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import BoundaryFieldVector, CouplingParameters, TransferWeights
from .recurrence import UVector, log_branch_bracket

# deepest volume that build_tree makes and finite_measure accepts
_MAX_DEPTH = 3


class CayleyTree(NamedTuple):
    """Finite semi-infinite-tree volume V_n: root plus n levels of successors.

    Vertices are indexed breadth-first, so level m occupies indices
    (3^m - 1)/2 .. (3^{m+1} - 3)/2 and the successors of x are
    3x+1, 3x+2, 3x+3.
    """

    depth: int

    @property
    def n_vertices(self) -> int:
        return (3 ** (self.depth + 1) - 1) // 2

    def level(self, m: int) -> range:
        start = (3**m - 1) // 2
        return range(start, start + 3**m)

    def successors(self, x: int) -> tuple[int, int, int]:
        return (3 * x + 1, 3 * x + 2, 3 * x + 3)

    def parent(self, x: int) -> int:
        return (x - 1) // 3

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.repeat(np.arange((3**self.depth - 1) // 2), 3)
        return xs, 3 * xs + np.tile([1, 2, 3], xs.size // 3)

    def prolonged_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(vertex, grandchild) pairs along successor chains; sibling pairs at
        equal distance are not part of the interaction."""
        if self.depth < 2:
            return np.array([], dtype=int), np.array([], dtype=int)
        n_anc = (3 ** (self.depth - 1) - 1) // 2
        xs = np.repeat(np.arange(n_anc), 9)
        offs = np.tile(np.arange(4, 13), n_anc)
        return xs, 9 * xs + offs


def build_tree(depth: int) -> CayleyTree:
    if not (1 <= depth <= _MAX_DEPTH):
        raise ValueError(f"depth must be in 1..{_MAX_DEPTH}, got {depth}")
    return CayleyTree(depth=depth)


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


@functools.lru_cache(maxsize=None)
def _spin_table(n: int) -> np.ndarray:
    """All 2^n sign patterns; vertex v sits in bit n-1-v, bit 0 means spin +1.

    Cached per n (only depth 1 and 2 volumes, n = 4 and 13, are enumerated)
    and read-only, since every caller shares the one array.  int8 keeps the
    cached depth-2 table at 104 KB (832 KB as float64).
    """
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    table = (1 - 2 * bits).astype(np.int8)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _feature_table(depth: int) -> np.ndarray:
    """Per-configuration counts (E, P, M_1..M_8) on the volume of this depth.

    E sums the edge products and P the prolonged-pair products; M_k is the
    signed count (spin product of center and successors) of outermost
    semi-balls in class k.  A configuration's log weight is then
    beta*J*E + beta*Jp*P + sum_k M_k*h_k, so one matrix-vector product gives
    the whole table.  Rows follow _spin_table; cached per depth, read-only,
    integer-valued floats in column-major order, which makes the product
    about twice as fast as row-major.
    """
    tree = build_tree(depth)
    spins = _spin_table(tree.n_vertices)
    ex, ey = tree.edge_pairs()
    px, pz = tree.prolonged_pairs()
    table = np.zeros((spins.shape[0], 10), order="F")
    table[:, 0] = (spins[:, ex] * spins[:, ey]).sum(axis=1)
    table[:, 1] = (spins[:, px] * spins[:, pz]).sum(axis=1)
    rows = np.arange(spins.shape[0])
    for x in tree.level(depth - 1):
        triple = spins[:, list(tree.successors(x))]
        cls = np.where(spins[:, x] == 1, 0, 4) + (triple == -1).sum(axis=1)
        table[rows, 2 + cls] += spins[:, x] * triple.prod(axis=1)
    table.flags.writeable = False
    return table


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


def _log_partition_factorized(depth: int, params: CouplingParameters,
                              h: BoundaryFieldVector) -> float:
    """log Z by summing leaves first and exploiting branch independence."""
    bj = params.beta * params.J
    log_b = {(i, j): math.log(branch_sum(i, j, params, h))
             for i in (1, -1) for j in (1, -1)}
    if depth == 2:
        log_t = [np.logaddexp(bj * i + log_b[(i, 1)], -bj * i + log_b[(i, -1)])
                 for i in (1, -1)]
        return float(np.logaddexp(3.0 * log_t[0], 3.0 * log_t[1]))
    if depth == 3:
        log_g = []
        for i in (1, -1):
            inner = {j: np.logaddexp(bj * j + params.beta * params.Jp * i + log_b[(j, 1)],
                                     -bj * j - params.beta * params.Jp * i + log_b[(j, -1)])
                     for j in (1, -1)}
            log_g.append(np.logaddexp(bj * i + 3.0 * inner[1],
                                      -bj * i + 3.0 * inner[-1]))
        return float(np.logaddexp(3.0 * log_g[0], 3.0 * log_g[1]))
    raise ValueError("factorized partition function supports depth 2 or 3")


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


@functools.lru_cache(maxsize=None)
def _merged_feature_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The depth-2 count table with equal rows merged per inner configuration.

    Returns (features, multiplicity, starts): features is (10, 560), one
    contiguous row per count; multiplicity is how many of the 8192
    configurations each merged row stands for; starts is where each of the
    16 inner configurations' merged rows begin, in index order.  Cached and
    read-only.
    """
    table = _feature_table(2)
    # every count lies in -12..12, so base 25 digits give each (inner
    # configuration, count row) pair one integer key; vertices 0..3 are the
    # top four index bits, so index >> 9 is the inner configuration
    digits = table.astype(np.int64) + 12
    inner = np.arange(table.shape[0]) >> 9
    key = inner * 25**10 + digits @ 25 ** np.arange(10, dtype=np.int64)
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    features = np.ascontiguousarray(table[first].T)
    multiplicity = count.astype(float)
    starts = np.searchsorted(inner[first], np.arange(16))
    for array in (features, multiplicity, starts):
        array.flags.writeable = False
    return features, multiplicity, starts


def _log_weights_by_root(features: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(m, rows) log weights: the ten count-times-coefficient terms summed
    elementwise in a fixed order, so a root's bits do not depend on m (a
    matrix product would let BLAS pick the order by the batch width)."""
    lw = coef[0][:, None] * features[0]
    for k in range(1, 10):
        lw += coef[k][:, None] * features[k]
    return lw


def consistency_residuals(coef) -> np.ndarray:
    """Max |depth-2 leaf marginal - depth-1 probability| for each column of
    a (10, m) block of coefficients (beta J, beta Jp, h_1..h_8).

    A boundary field describes one self-consistent measure family exactly
    when its residual vanishes; it does so at fixed points of the recurrence
    and fails by an O(1) amount for generic fields.  A column's residual has
    the same bits whatever block it sits in.
    """
    coef = np.asarray(coef, dtype=float)
    features, multiplicity, starts = _merged_feature_table()
    lw2 = _log_weights_by_root(features, coef)
    weights = np.exp(lw2 - lw2.max(axis=1, keepdims=True)) * multiplicity
    marginal = np.add.reduceat(weights, starts, axis=1)
    marginal /= marginal.sum(axis=1, keepdims=True)
    lw1 = _log_weights_by_root(_feature_table(1).T, coef)
    p1 = np.exp(lw1 - lw1.max(axis=1, keepdims=True))
    p1 /= p1.sum(axis=1, keepdims=True)
    return np.abs(marginal - p1).max(axis=1)


def kolmogorov_consistency_check(params: CouplingParameters,
                                 h: BoundaryFieldVector) -> float:
    """The consistency residual of one field: the one-column case of
    consistency_residuals."""
    coef = (params.beta * params.J, params.beta * params.Jp) + tuple(h.h)
    return float(consistency_residuals(np.array(coef)[:, None])[0])


def enumerated_semi_ball_sum(i: int, jvec: tuple[int, int, int], u: UVector,
                             w: TransferWeights) -> float:
    """Defining sum for one semi-ball update: all 2^9 grandchild assignments.

    The semi-ball has center spin i and successor spins jvec; each successor
    carries three further spins.  The weight of an assignment is the product
    over the three branches of exp(beta*J*j_b*S_b + beta*Jp*i*S_b) times the
    branch's own class field factor u^sign.
    """
    u_arr = u.as_array()
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


def verify_recurrence_by_enumeration(u: UVector, w: TransferWeights) -> np.ndarray:
    """Relative mismatch of the eight closed-form updates against their sums.

    The enumerated side carries an unknown common normalization; it is fitted
    from the first class and divided out, so a zero residual vector means the
    closed forms reproduce the defining sums up to one shared constant.
    """
    log_u = np.log(u.as_array())
    lb = {(i, j): log_branch_bracket(i, j, log_u, w) for i in (1, -1) for j in (1, -1)}
    residuals = np.empty(8)
    ratio0 = None
    for k, (i, jvec) in enumerate(_CLASS_REPS):
        minus = jvec.count(-1)
        closed = math.exp((3 - minus) * lb[(i, 1)] + minus * lb[(i, -1)])
        enumerated = enumerated_semi_ball_sum(i, jvec, u, w)
        ratio = closed / enumerated
        if ratio0 is None:
            ratio0 = ratio
        residuals[k] = abs(ratio / ratio0 - 1.0)
    return residuals
