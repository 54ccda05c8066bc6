"""The kernel of the consistency check: all that a checked scan runs.

_log_brackets is the one closed form of the branch bracket log B(i, j), the
leaf sum over one outermost semi-ball, for a (10, m) block of coefficients
(beta J, beta Jp, h_1..h_8), read from the 16-row depth-1 table.
consistency_residuals, the oracle's factorized depth-3 log Z and the
recurrence's full_step all read it, from here, its one home.
consistency_residuals checks a block at once, one residual per column: the
depth-2 marginal of the inner vertices 0..3 factorizes into one bracket per
child, so a checked scan never enumerates the depth-2 volume, whose tables
stay the tests' brute-force reference.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

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

    B(i, j) is the leaf sum over one outermost semi-ball with center spin j
    and grandparent spin i: exp(beta J j S + beta Jp i S + sign h_class)
    summed over the eight leaf triples, S the triple's sum.  The depth-1 rows with root spin j
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
