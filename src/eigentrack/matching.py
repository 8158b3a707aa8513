"""Pairwise matching of two snapshots over a local subinterval.

The cost of pairing eigenpair j of the first snapshot with eigenpair l of
the second combines the eigenvalue distance and the sign-resolved
eigenvector distance in the b-norm; one Gram product of the two
eigenvector blocks gives every entry, and is formed for an empty side too.
An exact rectangular minimum-cost assignment then gives each side an order
in which matched pairs occupy equal positions; the side with fewer
eigenpairs keeps its own.  The assignment comes from scipy's compiled
Jonker-Volgenant shortest-augmenting-path matcher
(``scipy.sparse.csgraph.min_weight_full_bipartite_matching``); among equal
optima the lexicographically smallest column sequence is kept, with totals
compared exactly in row order.

The same Gram matrix, re-indexed into matched order, is the projection
matrix that verification reads: each subinterval forms its b-inner products
once, here, and verification needs no eigenvector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from eigentrack.eigensolver import Snapshot

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise dissimilarity of eigenpairs across a subinterval."""

    values: np.ndarray                      # (n_a, n_b), nonnegative, finite
    w1: float
    w2: float
    gram: np.ndarray | None = None          # (n_a, n_b) u_j^T B u_l; cost_matrix always sets it


@dataclass(frozen=True)
class Assignment:
    """The optimal pairing between the eigenpairs of two snapshots.

    ``sigma[j]`` is the index on the side with more eigenpairs matched to
    index j on the side with fewer (0-based; both sides in their original
    ascending-eigenvalue order; the second side counts as longer on a tie).
    ``order_a`` and ``order_b`` list each side's original indices in matched
    order: the shorter side keeps ``range(short)``, the longer one is
    ``sigma`` followed by its unmatched indices in ascending order.
    ``from_sigma`` derives both orders; the matching and a replayed record
    both build through it.
    """

    sigma: tuple[int, ...]
    total_cost: float
    order_a: tuple[int, ...]
    order_b: tuple[int, ...]

    @classmethod
    def from_sigma(cls, sigma, total_cost: float, n_a: int, n_b: int) -> Assignment:
        """The assignment of ``n_a`` to ``n_b`` eigenpairs given by ``sigma``; raises
        ValueError unless ``sigma`` maps the shorter side injectively into the longer."""
        short, long = sorted((n_a, n_b))
        ints = isinstance(sigma, (list, tuple)) and all(type(s) is int for s in sigma)
        # injective into range(long) when every index is distinct and lands in it
        if not (ints and len(sigma) == len(set(sigma) & set(range(long))) == short):
            raise ValueError(f"sigma {sigma} is not an injection of {short} into {long} eigenpairs")
        sigma = tuple(sigma)
        orders = (tuple(range(short)), sigma + tuple(sorted(set(range(long)) - set(sigma))))
        return cls(sigma, total_cost, *(orders if n_a <= n_b else orders[::-1]))

    def pairs(self) -> list[tuple[int, int]]:
        """Matched (index_a, index_b) pairs in original indices."""
        return list(zip(self.order_a, self.order_b))


def cost_matrix(
    snap_a: Snapshot, snap_b: Snapshot, B: sp.spmatrix, w1: float, w2: float
) -> CostMatrix:
    """Build the matching cost matrix for two snapshots on the same mesh.

    Entry (j, l) is w1 * |lambda_j - lambda_l| plus w2 times the smaller of
    the b-norms of u_j - u_l and u_j + u_l; the minimum over both signs makes
    the cost insensitive to the solver's arbitrary eigenvector signs.

    For b-normalized vectors the smaller squared distance is 2 - 2|g| with
    g = u_j^T B u_l, so one Gram product serves every entry.  That form
    cancels catastrophically for nearly parallel pairs, so the entries with
    |g| > 0.99 are recomputed from the difference u_j - sign(g) u_l, which
    keeps identical and negated eigenvectors at exactly zero.  The Gram
    matrix g is kept on the result, for w2 == 0 and an empty side as well.
    """
    if snap_a.fingerprint != snap_b.fingerprint:
        raise ValueError("snapshots were computed on different meshes")
    la, lb = snap_a.eigenvalues, snap_b.eigenvalues
    va, vb = snap_a.eigenvectors, snap_b.eigenvectors
    values = w1 * np.abs(la[:, None] - lb[None, :])
    g = va.T @ (B @ vb)
    if w2 != 0.0:
        d2 = 2.0 - 2.0 * np.abs(g)
        j, l = np.nonzero(np.abs(g) > 0.99)
        if j.size:
            diff = va[:, j] - np.sign(g[j, l]) * vb[:, l]
            d2[j, l] = np.einsum("ij,ij->j", diff, B @ diff)
        values = values + w2 * np.sqrt(np.maximum(d2, 0.0))
    return CostMatrix(values=values, w1=w1, w2=w2, gram=g)


def _min_cost_columns(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by an exact min-cost assignment (rows <= cols)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    # a zero entry would be read as a missing edge, so costs are floored at
    # the smallest positive normal float
    graph = sp.csr_array(np.maximum(cost, np.finfo(float).tiny))
    return min_weight_full_bipartite_matching(graph)[1]


def _sequential_sum(cost: np.ndarray, cols) -> float:
    # plain left-to-right summation so totals are reproducible bit for bit
    total = 0.0
    for i, j in enumerate(cols):
        total += float(cost[i, j])
    return total


def _lexicographic_assignment(cost: np.ndarray) -> np.ndarray:
    """Among all minimum-cost assignments, pick the lexicographically
    smallest column sequence (rows taken in order).

    Row by row, only the free columns below the current optimum's column are
    tried: a larger column cannot give a smaller sequence, and the current
    column already qualifies.  A candidate qualifies when its best completion
    re-summed in row order equals the optimum exactly, so only genuine
    float-level ties are broken lexicographically.
    """
    r, c = cost.shape
    chosen = _min_cost_columns(cost)
    total = _sequential_sum(cost, chosen)
    for i in range(r):
        taken = set(chosen[:i].tolist())
        free = np.array([j for j in range(c) if j not in taken])
        for cand in free[free < chosen[i]]:
            rest_cols = free[free != cand]
            tail = rest_cols[_min_cost_columns(cost[i + 1 :, rest_cols])] if i + 1 < r else []
            full = np.concatenate((chosen[:i], [cand], tail)).astype(int)
            if _sequential_sum(cost, full) == total:
                chosen = full
                break
    return chosen


def solve_assignment(cost: CostMatrix) -> Assignment:
    """Solve the rectangular assignment problem for a cost matrix.

    The shorter side's indices are injectively matched into the longer side;
    optimality is exact, not heuristic.  Empty snapshots yield an empty
    assignment.
    """
    values = np.asarray(cost.values, dtype=float)
    n_a, n_b = values.shape
    if not np.all(np.isfinite(values)) or (values.size and values.min() < 0):
        raise ValueError("cost matrix must be finite and nonnegative")
    work = values if n_a <= n_b else values.T   # rows: the shorter side
    sigma = _lexicographic_assignment(work) if work.size else np.empty(0, dtype=int)
    total = _sequential_sum(work, sigma)
    return Assignment.from_sigma([int(s) for s in sigma], total, n_a, n_b)


def apriori_match(
    snap_a: Snapshot, snap_b: Snapshot, B: sp.spmatrix, w1: float, w2: float
) -> tuple[Assignment, np.ndarray, np.ndarray, np.ndarray]:
    """Match two snapshots; return the assignment and, in matched order, the
    projection matrix and both sides' eigenvalues.

    Position j of both sides holds the j-th matched pair for j below the
    shorter length; the longer side's unmatched eigenpairs follow in
    ascending-eigenvalue order.  The projection is the absolute value of the
    cost stage's Gram matrix re-indexed into that order, so matched pairs sit
    on its diagonal.
    """
    cost = cost_matrix(snap_a, snap_b, B, w1, w2)
    assignment = solve_assignment(cost)
    ia, ib = list(assignment.order_a), list(assignment.order_b)
    projection = np.abs(cost.gram[np.ix_(ia, ib)])
    return assignment, projection, snap_a.eigenvalues[ia], snap_b.eigenvalues[ib]
