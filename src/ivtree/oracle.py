"""Exact finite-volume computations on the order-3 tree.

A checked scan runs only consistency_residuals, the branch brackets of
_log_brackets that it reads, and the 16-row depth-1 feature table under
both.  The rest evaluates the Hamiltonian, partition function and Gibbs
probabilities by direct enumeration (or by branch-factorized leaf sums
where full enumeration is infeasible), giving an independent check on
every closed-form recurrence result.  Depth 2 means 2^13 = 8192
configurations.

_log_brackets is the one closed form of the branch bracket log B(i, j), the
leaf sum over one outermost semi-ball, for a (10, m) block of coefficients
(beta J, beta Jp, h_1..h_8), read from the 16-row depth-1 table.
consistency_residuals, the factorized depth-3 log Z and the recurrence's
full_step all read it; branch_sum and enumerated_semi_ball_sum are its
independent enumerated references.  consistency_residuals checks a block at
once, one residual per column: the depth-2 marginal of the inner vertices
0..3 factorizes into one bracket per child, so a checked scan never
enumerates the depth-2 volume, whose tables stay the tests' brute-force
reference.  kolmogorov_consistency_check is its one-column case.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import BoundaryFieldVector, CouplingParameters, TransferWeights

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
    and read-only, since every caller shares the one array.  Each column is
    written in place as alternating runs of +1 and -1, so the build makes no
    temporaries; int8 keeps the cached depth-2 table at 104 KB (832 KB as
    float64).
    """
    table = np.empty((2**n, n), dtype=np.int8)
    for v in range(n):
        # rows split as (higher bits, bit n-1-v, lower bits)
        runs = table[:, v].reshape(2**v, 2, 2 ** (n - 1 - v))
        runs[:, 0] = 1
        runs[:, 1] = -1
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _feature_table(depth: int) -> np.ndarray:
    """Per-configuration counts (E, P, M_1..M_8) on the volume of this depth.

    E sums the edge products and P the prolonged-pair products; M_k is the
    signed count (spin product of center and successors) of outermost
    semi-balls in class k.  A configuration's log weight is then
    beta*J*E + beta*Jp*P + sum_k M_k*h_k, one matrix-vector product for
    finite_measure.  Rows follow _spin_table; every count lies in -12..12,
    so the float64 sums are exact.  Cached per depth, read-only and
    column-major, which makes the product about twice as fast as row-major.
    """
    tree = build_tree(depth)
    spins = _spin_table(tree.n_vertices)
    table = np.zeros((spins.shape[0], 10), order="F")
    for col, (xs, ys) in enumerate((tree.edge_pairs(), tree.prolonged_pairs())):
        for x, y in zip(xs.tolist(), ys.tolist()):
            table[:, col] += spins[:, x] * spins[:, y]
    rows = np.arange(spins.shape[0])
    for x in tree.level(depth - 1):
        triple = spins[:, list(tree.successors(x))]
        cls = np.where(spins[:, x] == 1, 2, 6) + (triple == -1).sum(axis=1, dtype=np.int8)
        table[rows, cls] += spins[:, x] * triple.prod(axis=1, dtype=np.int8)
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


def _log_weights_by_root(features: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(m, rows) log weights: the ten count-times-coefficient terms summed
    elementwise in a fixed order, so a root's bits do not depend on m (a
    matrix product would let BLAS pick the order by the batch width)."""
    lw = coef[0][:, None] * features[0]
    for k in range(1, 10):
        lw += coef[k][:, None] * features[k]
    return lw


def _log_brackets(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth-1 log weights, (m, 16), and the branch brackets log B(i, j),
    (m, 2, 2) over (column, i, j) with index 0 for spin +1, for each column
    of a (10, m) block of coefficients (beta J, beta Jp, h_1..h_8).

    B(i, j) is the leaf sum of branch_sum over one outermost semi-ball with
    center spin j and grandparent spin i.  The depth-1 rows with root spin j
    hold j*S in E and the class sign in M_k, so log B(i, j) is the
    log-sum-exp of their log weights plus beta Jp i j E; being a log-sum-exp,
    it stays finite at weights whose terms overflow a double.
    """
    features = _feature_table(1).T
    lw1 = _log_weights_by_root(features, coef)
    m = lw1.shape[0]
    # axes (root, i, j, leaf triple); leaf_sum is S = j E by (j, triple)
    spin = np.array([1.0, -1.0])
    leaf_sum = features[0].reshape(2, 8) * spin[:, None]
    x = lw1.reshape(m, 1, 2, 8) + np.multiply.outer(coef[1], spin)[..., None, None] * leaf_sum
    top = x.max(axis=3)
    return lw1, top + np.log(np.exp(x - top[..., None]).sum(axis=3))


def consistency_residuals(coef) -> np.ndarray:
    """Max |depth-2 leaf marginal - depth-1 probability| for each column of
    a (10, m) block of coefficients (beta J, beta Jp, h_1..h_8).

    A boundary field describes one self-consistent measure family exactly
    when its residual vanishes; it does so at fixed points of the recurrence
    and fails by an O(1) amount for generic fields.  A column's residual has
    the same bits whatever block it sits in.

    The depth-2 marginal of an inner configuration (s0; s1, s2, s3) is
    exp(beta J s0 (s1 + s2 + s3)) times the branch brackets B(s0, s1),
    B(s0, s2) and B(s0, s3) of _log_brackets, which also gives the depth-1
    log weights.
    """
    coef = np.asarray(coef, dtype=float)
    lw1, log_b = _log_brackets(coef)
    log_b = log_b.reshape(-1, 4)
    # row r of the depth-1 table: s0 is bit 3, s1..s3 are bits 2..0, and
    # bit 1 means spin -1; log_b's column is 2 * (s0 bit) + (child bit)
    rows = np.arange(16)
    lm2 = coef[0][:, None] * _feature_table(1)[:, 0]
    for shift in (2, 1, 0):
        lm2 += log_b[:, 2 * (rows >> 3) + (rows >> shift & 1)]
    p2 = np.exp(lm2 - lm2.max(axis=1, keepdims=True))
    p2 /= p2.sum(axis=1, keepdims=True)
    p1 = np.exp(lw1 - lw1.max(axis=1, keepdims=True))
    p1 /= p1.sum(axis=1, keepdims=True)
    return np.abs(p2 - p1).max(axis=1)


def kolmogorov_consistency_check(params: CouplingParameters,
                                 h: BoundaryFieldVector) -> float:
    """The consistency residual of one field: the one-column case of
    consistency_residuals."""
    coef = (params.beta * params.J, params.beta * params.Jp) + tuple(h.h)
    return float(consistency_residuals(np.array(coef)[:, None])[0])


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
    from .recurrence import _SIGNS, full_step

    closed = np.exp(_SIGNS * full_step(h, w).h)
    ratio = closed / np.array([enumerated_semi_ball_sum(i, jvec, h, w) for i, jvec in _CLASS_REPS])
    return np.abs(ratio / ratio[0] - 1.0)
