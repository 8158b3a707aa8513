"""A posteriori verification of a matched subinterval.

The projection matrix holds the absolute b-inner products of the reordered
eigenvectors across the subinterval; a consistent matching makes it close to
diagonal.  Verification truncates each row and column against the diagonal
with tolerance t_pi, inspects the surviving patterns, and either certifies
the subinterval, declares a cluster of indistinguishable eigenpairs (when
the relative eigenvalue gaps stay below t_lambda), or marks the subinterval
for refinement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from eigentrack.eigensolver import Snapshot

CERTIFIED = "certified"
REFINE = "refine"


@dataclass(frozen=True)
class Cluster:
    """Matched positions declared indistinguishable (0-based, per side)."""

    rows: tuple[int, ...]   # positions on the first snapshot's side
    cols: tuple[int, ...]   # positions on the second snapshot's side


@dataclass(frozen=True)
class Diagnostic:
    """Surviving row/column patterns for one inspected position."""

    j: int
    r1: tuple[int, ...]     # nonzero column indices of row j after truncation
    r2: tuple[int, ...]     # nonzero row indices of column j after truncation


@dataclass(frozen=True)
class CertificationReport:
    verdict: str
    diagnostics: tuple[Diagnostic, ...]
    clusters: tuple[Cluster, ...]
    projection: np.ndarray   # untruncated
    truncated: np.ndarray    # state of the matrix when the loop ended
    failed_at: int | None    # position that triggered refinement, if any

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def projection_matrix(
    matched_a: Snapshot, matched_b: Snapshot, B: sp.spmatrix
) -> np.ndarray:
    """Absolute b-inner products of already matched snapshots.

    Expects inputs reordered by apriori_match so matched pairs sit on the
    diagonal; no truncation is applied here.
    """
    if matched_a.fingerprint != matched_b.fingerprint:
        raise ValueError("snapshots were computed on different meshes")
    return np.abs(matched_a.eigenvectors.T @ (B @ matched_b.eigenvectors))


def verify(
    matched_a: Snapshot,
    matched_b: Snapshot,
    B: sp.spmatrix,
    t_pi: float,
    t_lambda: float,
) -> CertificationReport:
    """Run the truncation and cluster tests on a matched subinterval.

    For each matched position j the j-th row and column are truncated in
    place: an entry is zeroed when the diagonal exceeds it by at least t_pi.
    A position passes when row and column each keep a single survivor.
    Unequal survivor counts mark the subinterval immediately.  Equal counts
    above one trigger the cluster test: the surviving row indices are gauged
    against the first side's eigenvalues and the surviving column indices
    against the second side's, all relative to position j; if every gap
    stays within t_lambda the positions form a cluster, otherwise the
    subinterval is marked.  The loop stops at the first marking.
    """
    if not 0.0 < t_pi < 1.0:
        raise ValueError("t_pi must lie in (0, 1)")
    if not t_lambda > 0.0:   # NaN included
        raise ValueError("t_lambda must be positive")
    pi_full = projection_matrix(matched_a, matched_b, B)
    pi = pi_full.copy()
    la, lb = matched_a.eigenvalues, matched_b.eigenvalues
    n_a, n_b = pi.shape

    diagnostics: list[Diagnostic] = []
    clusters: list[Cluster] = []
    verdict = CERTIFIED
    failed_at = None

    for j in range(min(n_a, n_b)):
        pi[j, :] = np.where(pi[j, j] >= pi[j, :] + t_pi, 0.0, pi[j, :])
        pi[:, j] = np.where(pi[j, j] >= pi[:, j] + t_pi, 0.0, pi[:, j])
        r1 = tuple(int(i) for i in np.nonzero(pi[j, :])[0])
        r2 = tuple(int(i) for i in np.nonzero(pi[:, j])[0])
        diagnostics.append(Diagnostic(j=j, r1=r1, r2=r2))
        if len(r1) <= 1 and len(r2) <= 1:
            continue
        if len(r1) != len(r2):
            verdict, failed_at = REFINE, j
            break
        gap_a = max(abs(la[j] - la[g]) / la[j] for g in r2)
        gap_b = max(abs(lb[j] - lb[g]) / lb[j] for g in r1)
        if max(gap_a, gap_b) > t_lambda:
            verdict, failed_at = REFINE, j
            break
        _record_cluster(clusters, r2, r1)

    return CertificationReport(
        verdict=verdict,
        diagnostics=tuple(diagnostics),
        clusters=tuple(clusters),
        projection=pi_full,
        truncated=pi,
        failed_at=failed_at,
    )


def _record_cluster(clusters: list[Cluster], rows, cols) -> None:
    """Add a cluster, merging with any existing one that overlaps it."""
    rows, cols = set(rows), set(cols)
    merged = []
    for c in clusters:
        if rows & set(c.rows) or cols & set(c.cols):
            rows |= set(c.rows)
            cols |= set(c.cols)
        else:
            merged.append(c)
    merged.append(Cluster(rows=tuple(sorted(rows)), cols=tuple(sorted(cols))))
    clusters[:] = merged
