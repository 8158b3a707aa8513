"""A posteriori verification of a matched subinterval.

The projection matrix holds the absolute b-inner products of the reordered
eigenvectors across the subinterval; a consistent matching makes it close to
diagonal.  It is the matching's Gram matrix in matched order, handed over by
``apriori_match``, so verification is a function of that matrix and the
matched eigenvalues alone.  Verification truncates each row and column
against the diagonal with tolerance t_pi, inspects the surviving patterns,
and either certifies the subinterval, declares a cluster of
indistinguishable eigenpairs (when the relative eigenvalue gaps stay below
t_lambda), or marks the subinterval for refinement.

The report holds the patterns and the marked position, if any, from which
its verdict follows, not the matrix: ``truncated`` rebuilds the truncated
matrix from the projection and the report when it is to be shown.  The
report and its parts are named tuples, so ``json.dumps`` writes a report as
the nested array, in field order, that a level record keeps.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

CERTIFIED = "certified"
REFINE = "refine"


class Cluster(NamedTuple):
    """Matched positions declared indistinguishable (0-based, per side)."""

    rows: tuple[int, ...]   # positions on the first snapshot's side
    cols: tuple[int, ...]   # positions on the second snapshot's side


class Diagnostic(NamedTuple):
    """Surviving row/column patterns for one inspected position."""

    j: int
    r1: tuple[int, ...]     # nonzero column indices of row j after truncation
    r2: tuple[int, ...]     # nonzero row indices of column j after truncation


class CertificationReport(NamedTuple):
    diagnostics: tuple[Diagnostic, ...]   # one per inspected position j = 0, 1, ...
    clusters: tuple[Cluster, ...]
    failed_at: int | None    # position that triggered refinement, if any

    @property
    def verdict(self) -> str:
        return CERTIFIED if self.failed_at is None else REFINE

    @property
    def certified(self) -> bool:
        return self.failed_at is None


def verify(
    projection: np.ndarray,
    eigenvalues_a: np.ndarray,
    eigenvalues_b: np.ndarray,
    t_pi: float,
    t_lambda: float,
) -> CertificationReport:
    """Run the truncation and cluster tests on a matched subinterval.

    ``projection`` is the (n_a, n_b) matrix of absolute b-inner products and
    ``eigenvalues_a``, ``eigenvalues_b`` the two sides' eigenvalues, all in
    matched order as ``apriori_match`` returns them.  For each matched
    position j the j-th row and column are truncated in place: an entry is
    zeroed when the diagonal exceeds it by at least t_pi.  A position passes
    when row and column each keep a single survivor.
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
    pi = np.array(projection, dtype=float)
    la, lb = eigenvalues_a, eigenvalues_b
    if pi.shape != (len(la), len(lb)):
        raise ValueError(
            f"projection of shape {pi.shape} for {len(la)} x {len(lb)} eigenvalues"
        )
    n_a, n_b = pi.shape

    diagnostics: list[Diagnostic] = []
    clusters: list[Cluster] = []
    failed_at = None

    for j in range(min(n_a, n_b)):
        _truncate(pi, j, t_pi)
        r1 = tuple(int(i) for i in np.nonzero(pi[j, :])[0])
        r2 = tuple(int(i) for i in np.nonzero(pi[:, j])[0])
        diagnostics.append(Diagnostic(j=j, r1=r1, r2=r2))
        if len(r1) <= 1 and len(r2) <= 1:
            continue
        if len(r1) != len(r2):
            failed_at = j
            break
        gap_a = max(abs(la[j] - la[g]) / la[j] for g in r2)
        gap_b = max(abs(lb[j] - lb[g]) / lb[j] for g in r1)
        if max(gap_a, gap_b) > t_lambda:
            failed_at = j
            break
        _record_cluster(clusters, r2, r1)

    return CertificationReport(
        diagnostics=tuple(diagnostics),
        clusters=tuple(clusters),
        failed_at=failed_at,
    )


def truncated(projection: np.ndarray, report: CertificationReport, t_pi: float) -> np.ndarray:
    """The state ``verify`` left ``projection`` in when its loop ended: the
    truncation replayed over the report's inspected positions."""
    pi = np.array(projection, dtype=float)
    for j in range(len(report.diagnostics)):
        _truncate(pi, j, t_pi)
    return pi


def _truncate(pi: np.ndarray, j: int, t_pi: float) -> None:
    """Zero, in place, the entries of row and column j that the diagonal
    exceeds by at least t_pi."""
    pi[j, :] = np.where(pi[j, j] >= pi[j, :] + t_pi, 0.0, pi[j, :])
    pi[:, j] = np.where(pi[j, j] >= pi[:, j] + t_pi, 0.0, pi[:, j])


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
