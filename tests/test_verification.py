from dataclasses import replace

import numpy as np
import pytest

from eigentrack.matching import apriori_match
from eigentrack.verification import CERTIFIED, REFINE, projection_matrix, verify


@pytest.fixture(scope="module")
def matched_41(snapshots_41, provider_1d):
    snap_a, snap_b = snapshots_41
    _, ma, mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
    return ma, mb


@pytest.fixture(scope="module")
def matched_short(cfg_1d, provider_1d):
    """A matched pair on a short subinterval: certifiable, dominant diagonal."""
    from eigentrack.grid import point_of_phys

    snap_a = provider_1d.get(point_of_phys(["0.4"], cfg_1d.box))
    snap_b = provider_1d.get(point_of_phys(["0.55"], cfg_1d.box))
    _, ma, mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
    return ma, mb


class TestProjectionMatrix:
    def test_worked_subinterval_entries(self, matched_41, provider_1d):
        pi = projection_matrix(*matched_41, provider_1d.mass)
        quoted = {(0, 0): 0.997, (1, 1): 0.778, (1, 4): 0.622, (3, 1): 0.617}
        for (j, l), val in quoted.items():
            assert abs(pi[j, l] - val) < 0.02

    def test_identical_inputs_diagonal(self, matched_41, provider_1d):
        ma, _ = matched_41
        pi = projection_matrix(ma, ma, provider_1d.mass)
        assert np.allclose(np.diag(pi), 1.0, atol=1e-8)
        off = pi - np.diag(np.diag(pi))
        assert np.max(np.abs(off)) < 1e-8

    def test_cauchy_schwarz_bound(self, matched_41, provider_1d):
        pi = projection_matrix(*matched_41, provider_1d.mass)
        assert pi.max() <= 1.0 + 1e-6
        assert pi.min() >= 0.0


class TestVerify:
    def test_worked_subinterval_refines(self, matched_41, provider_1d):
        report = verify(*matched_41, provider_1d.mass, 0.21, 0.001)
        assert report.verdict == REFINE
        assert report.failed_at == 1
        first = report.diagnostics[0]
        assert (first.r1, first.r2) == ((0,), (0,))
        second = report.diagnostics[1]
        assert second.r1 == (1, 4)  # positions 2 and 5, one-based
        assert second.r2 == (1, 3)  # positions 2 and 4, one-based
        assert report.clusters == ()

    def test_loop_stops_at_first_failure(self, matched_41, provider_1d):
        report = verify(*matched_41, provider_1d.mass, 0.21, 0.001)
        assert len(report.diagnostics) == 2

    def test_identical_pair_certifies(self, matched_41, provider_1d):
        ma, _ = matched_41
        for t_pi in (0.01, 0.21, 0.9):
            report = verify(ma, ma, provider_1d.mass, t_pi, 0.001)
            assert report.verdict == CERTIFIED
            assert report.clusters == ()

    def test_synthetic_cluster(self, snapshots_41, provider_1d):
        # two nearly equal eigenvalues whose eigenvectors are rotated by 45
        # degrees in their own span: indistinguishable, hence one cluster
        snap, _ = snapshots_41
        lam = snap.eigenvalues.copy()
        lam[1] = lam[0] * (1 + 1e-5)
        left = replace(snap, eigenvalues=lam)
        vecs = snap.eigenvectors.copy()
        u0, u1 = vecs[:, 0].copy(), vecs[:, 1].copy()
        vecs[:, 0] = (u0 + u1) / np.sqrt(2)
        vecs[:, 1] = (u0 - u1) / np.sqrt(2)
        right = replace(snap, eigenvalues=lam.copy(), eigenvectors=vecs)
        report = verify(left, right, provider_1d.mass, 0.21, 1e-3)
        assert report.verdict == CERTIFIED
        assert len(report.clusters) == 1
        assert report.clusters[0].rows == (0, 1)
        assert report.clusters[0].cols == (0, 1)

    def test_synthetic_cluster_fails_tight_gap_tolerance(self, snapshots_41, provider_1d):
        snap, _ = snapshots_41
        lam = snap.eigenvalues.copy()
        lam[1] = lam[0] * (1 + 1e-5)
        left = replace(snap, eigenvalues=lam)
        vecs = snap.eigenvectors.copy()
        u0, u1 = vecs[:, 0].copy(), vecs[:, 1].copy()
        vecs[:, 0] = (u0 + u1) / np.sqrt(2)
        vecs[:, 1] = (u0 - u1) / np.sqrt(2)
        right = replace(snap, eigenvalues=lam.copy(), eigenvectors=vecs)
        report = verify(left, right, provider_1d.mass, 0.21, 1e-7)
        assert report.verdict == REFINE

    def test_monotone_in_t_pi_when_clean(self, matched_short, provider_1d):
        ma, mb = matched_short
        base = verify(ma, mb, provider_1d.mass, 0.21, 0.001)
        assert base.verdict == CERTIFIED
        assert all(len(d.r1) == 1 == len(d.r2) for d in base.diagnostics)
        for stricter in (0.1, 0.02, 1e-4):
            assert verify(ma, mb, provider_1d.mass, stricter, 0.001).verdict == CERTIFIED

    def test_tiny_t_pi_truncates_everything(self, matched_short, provider_1d):
        ma, mb = matched_short
        pi = projection_matrix(ma, mb, provider_1d.mass)
        n = min(pi.shape)
        gaps = [
            pi[j, j] - v
            for j in range(n)
            for v in np.concatenate([np.delete(pi[j, :], j), np.delete(pi[:, j], j)])
            if pi[j, j] > v
        ]
        report = verify(ma, mb, provider_1d.mass, min(gaps) / 2, 0.001)
        assert report.verdict == CERTIFIED
        assert report.clusters == ()
        kept = report.truncated
        for j in range(n):
            assert np.flatnonzero(kept[j, :]).tolist() == [j]
            assert np.flatnonzero(kept[:, j]).tolist() == [j]

    def test_symmetric_verdict(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        _, ma, mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        fwd = verify(ma, mb, provider_1d.mass, 0.21, 0.001)
        _, mb2, ma2 = apriori_match(snap_b, snap_a, provider_1d.mass, 1.0, 200.0)
        rev = verify(mb2, ma2, provider_1d.mass, 0.21, 0.001)
        assert fwd.verdict == rev.verdict

    def test_tolerance_validation(self, matched_41, provider_1d):
        ma, mb = matched_41
        with pytest.raises(ValueError):
            verify(ma, mb, provider_1d.mass, 0.0, 0.001)
        with pytest.raises(ValueError):
            verify(ma, mb, provider_1d.mass, 0.21, 0.0)
        with pytest.raises(ValueError, match="t_lambda"):
            verify(ma, mb, provider_1d.mass, 0.21, float("nan"))
