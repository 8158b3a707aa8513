"""Pairwise matching of two snapshots over a local subinterval.

The cost of pairing eigenpair j of the first snapshot with eigenpair l of
the second combines the eigenvalue distance and the sign-resolved
eigenvector distance in the b-norm; one Gram product of the two
eigenvector blocks gives every entry.  An exact rectangular minimum-cost
assignment then reorders the snapshot with more eigenpairs so matched pairs
occupy equal positions.  The assignment comes from scipy's compiled
Jonker-Volgenant shortest-augmenting-path matcher
(``scipy.sparse.csgraph.min_weight_full_bipartite_matching``); among equal
optima the lexicographically smallest column sequence is kept, with totals
compared exactly in row order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from eigentrack.eigensolver import Snapshot


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise dissimilarity of eigenpairs across a subinterval."""

    values: np.ndarray                      # (n_a, n_b), nonnegative, finite
    w1: float
    w2: float


@dataclass(frozen=True)
class Assignment:
    """The optimal pairing between the eigenpairs of two snapshots.

    ``sigma[j]`` is the index on the side with more eigenpairs matched to
    index j on the side with fewer (0-based; both sides in their original
    ascending-eigenvalue order).  ``reorder`` is the full permutation applied
    to the reordered side: matched indices first, unmatched ones appended in
    ascending order.  When the sides have equal length the second snapshot is
    the reordered one.
    """

    sigma: tuple[int, ...]
    total_cost: float
    reordered_side: str                     # 'a' or 'b'
    reorder: tuple[int, ...]

    def pairs(self) -> list[tuple[int, int]]:
        """Matched (index_a, index_b) pairs in original indices."""
        if self.reordered_side == "b":
            return [(j, s) for j, s in enumerate(self.sigma)]
        return [(s, j) for j, s in enumerate(self.sigma)]

    def original_index(self, side: str, position: int) -> int:
        """Original index of the eigenpair sitting at `position` after reordering."""
        if side == self.reordered_side:
            return self.reorder[position]
        return position


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
    keeps identical and negated eigenvectors at exactly zero.
    """
    if snap_a.fingerprint != snap_b.fingerprint:
        raise ValueError("snapshots were computed on different meshes")
    la, lb = snap_a.eigenvalues, snap_b.eigenvalues
    va, vb = snap_a.eigenvectors, snap_b.eigenvectors
    values = w1 * np.abs(la[:, None] - lb[None, :])
    if w2 != 0.0 and len(la) and len(lb):
        g = va.T @ (B @ vb)
        d2 = 2.0 - 2.0 * np.abs(g)
        j, l = np.nonzero(np.abs(g) > 0.99)
        if j.size:
            diff = va[:, j] - np.sign(g[j, l]) * vb[:, l]
            d2[j, l] = np.einsum("ij,ij->j", diff, B @ diff)
        values = values + w2 * np.sqrt(np.maximum(d2, 0.0))
    return CostMatrix(values=values, w1=w1, w2=w2)


def _min_cost_columns(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by an exact min-cost assignment (rows <= cols)."""
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
    side = "b" if n_a <= n_b else "a"
    work = values if side == "b" else values.T
    sigma = _lexicographic_assignment(work) if work.size else np.empty(0, dtype=int)
    total = _sequential_sum(work, sigma)
    sigma = tuple(int(s) for s in sigma)
    unmatched = sorted(set(range(max(n_a, n_b))) - set(sigma))
    return Assignment(
        sigma=sigma, total_cost=total, reordered_side=side, reorder=sigma + tuple(unmatched)
    )


def permute_snapshot(snap: Snapshot, perm: tuple[int, ...]) -> Snapshot:
    """The snapshot with its eigenpairs in the order ``perm`` (e.g. ``Assignment.reorder``)."""
    idx = np.asarray(perm, dtype=int)
    return replace(
        snap,
        eigenvalues=snap.eigenvalues[idx],
        eigenvectors=snap.eigenvectors[:, idx],
    )


def apriori_match(
    snap_a: Snapshot, snap_b: Snapshot, B: sp.spmatrix, w1: float, w2: float
) -> tuple[Assignment, Snapshot, Snapshot]:
    """Match two snapshots and reorder the one with more eigenpairs.

    After the call, position j of both returned snapshots holds the j-th
    matched pair for j below the shorter length; the longer side's unmatched
    eigenpairs follow in ascending-eigenvalue order.
    """
    assignment = solve_assignment(cost_matrix(snap_a, snap_b, B, w1, w2))
    if assignment.reordered_side == "b":
        return assignment, snap_a, permute_snapshot(snap_b, assignment.reorder)
    return assignment, permute_snapshot(snap_a, assignment.reorder), snap_b
