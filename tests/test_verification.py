import numpy as np
import pytest

from eigentrack.matching import apriori_match
from eigentrack.verification import CERTIFIED, REFINE, Cluster, truncated, verify


@pytest.fixture(scope="module")
def matched_41(snapshots_41, provider_1d):
    """(projection, eigenvalues_a, eigenvalues_b) of the worked subinterval."""
    snap_a, snap_b = snapshots_41
    return apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)[1:]


@pytest.fixture(scope="module")
def matched_self(snapshots_41, provider_1d):
    """The 0.4 snapshot matched with itself."""
    snap, _ = snapshots_41
    return apriori_match(snap, snap, provider_1d.mass, 1.0, 200.0)[1:]


@pytest.fixture(scope="module")
def matched_short(cfg_1d, provider_1d):
    """A matched pair on a short subinterval: certifiable, dominant diagonal."""
    from eigentrack.grid import point_of_phys

    snap_a = provider_1d.get(point_of_phys(["0.4"], cfg_1d.box))
    snap_b = provider_1d.get(point_of_phys(["0.55"], cfg_1d.box))
    return apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)[1:]


def rotated_pair(gap: float):
    """Two nearly equal eigenvalues whose eigenvectors are rotated by 45 degrees
    in their own span on the second side, beside two clean positions."""
    lam = np.array([80.0, 80.0 * (1 + gap), 230.0, 266.0])
    pi = np.eye(4)
    pi[:2, :2] = 1 / np.sqrt(2)
    return pi, lam, lam.copy()


class TestProjectionMatrix:
    def test_worked_subinterval_entries(self, matched_41):
        pi = matched_41[0]
        quoted = {(0, 0): 0.997, (1, 1): 0.778, (1, 4): 0.622, (3, 1): 0.617}
        for (j, l), val in quoted.items():
            assert abs(pi[j, l] - val) < 0.02

    def test_identical_inputs_diagonal(self, matched_self):
        pi = matched_self[0]
        assert np.allclose(np.diag(pi), 1.0, atol=1e-8)
        off = pi - np.diag(np.diag(pi))
        assert np.max(np.abs(off)) < 1e-8

    def test_cauchy_schwarz_bound(self, matched_41):
        pi = matched_41[0]
        assert pi.max() <= 1.0 + 1e-6
        assert pi.min() >= 0.0


class TestVerify:
    def test_worked_subinterval_refines(self, matched_41):
        report = verify(*matched_41, 0.21, 0.001)
        assert report.verdict == REFINE
        assert report.failed_at == 1
        first = report.diagnostics[0]
        assert (first.r1, first.r2) == ((0,), (0,))
        second = report.diagnostics[1]
        assert second.r1 == (1, 4)  # positions 2 and 5, one-based
        assert second.r2 == (1, 3)  # positions 2 and 4, one-based
        assert report.clusters == ()

    def test_loop_stops_at_first_failure(self, matched_41):
        report = verify(*matched_41, 0.21, 0.001)
        assert len(report.diagnostics) == 2

    def test_truncation_stops_at_the_failing_position(self, matched_41):
        # refinement at position 1 leaves the block of rows and columns after
        # it as it was, even the entry (2, 8) that position 2 would zero
        pi = matched_41[0]
        report = verify(*matched_41, 0.21, 0.001)
        kept = truncated(pi, report, 0.21)
        assert report.failed_at == 1
        assert np.array_equal(kept[2:, 2:], pi[2:, 2:])
        assert 0.0 < pi[2, 8] <= pi[2, 2] - 0.21

    def test_identical_pair_certifies(self, matched_self):
        for t_pi in (0.01, 0.21, 0.9):
            report = verify(*matched_self, t_pi, 0.001)
            assert report.verdict == CERTIFIED
            assert report.clusters == ()

    def test_synthetic_cluster(self):
        # indistinguishable eigenpairs, hence one cluster
        report = verify(*rotated_pair(1e-5), 0.21, 1e-3)
        assert report.verdict == CERTIFIED
        assert len(report.clusters) == 1
        assert report.clusters[0].rows == (0, 1)
        assert report.clusters[0].cols == (0, 1)

    def test_synthetic_cluster_fails_tight_gap_tolerance(self):
        report = verify(*rotated_pair(1e-5), 0.21, 1e-7)
        assert report.verdict == REFINE

    def test_monotone_in_t_pi_when_clean(self, matched_short):
        base = verify(*matched_short, 0.21, 0.001)
        assert base.verdict == CERTIFIED
        assert all(len(d.r1) == 1 == len(d.r2) for d in base.diagnostics)
        for stricter in (0.1, 0.02, 1e-4):
            assert verify(*matched_short, stricter, 0.001).verdict == CERTIFIED

    def test_tiny_t_pi_truncates_everything(self, matched_short):
        pi = matched_short[0]
        n = min(pi.shape)
        gaps = [
            pi[j, j] - v
            for j in range(n)
            for v in np.concatenate([np.delete(pi[j, :], j), np.delete(pi[:, j], j)])
            if pi[j, j] > v
        ]
        report = verify(*matched_short, min(gaps) / 2, 0.001)
        assert report.verdict == CERTIFIED
        assert report.clusters == ()
        kept = truncated(pi, report, min(gaps) / 2)
        for j in range(n):
            assert np.flatnonzero(kept[j, :]).tolist() == [j]
            assert np.flatnonzero(kept[:, j]).tolist() == [j]

    def test_symmetric_verdict(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        fwd = verify(*apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)[1:], 0.21, 0.001)
        rev = verify(*apriori_match(snap_b, snap_a, provider_1d.mass, 1.0, 200.0)[1:], 0.21, 0.001)
        assert fwd.verdict == rev.verdict

    def test_tolerance_validation(self, matched_41):
        with pytest.raises(ValueError):
            verify(*matched_41, 0.0, 0.001)
        with pytest.raises(ValueError):
            verify(*matched_41, 0.21, 0.0)
        with pytest.raises(ValueError, match="t_lambda"):
            verify(*matched_41, 0.21, float("nan"))


class TestVerifyHandBuilt:
    """Each branch of the loop on a projection written out by hand; no solve."""

    lam = np.array([10.0, 20.0, 30.0])

    def test_certified(self):
        pi = np.array([[0.99, 0.1, 0.0], [0.1, 0.98, 0.05], [0.0, 0.05, 0.97]])
        report = verify(pi, self.lam, self.lam + 1, 0.21, 1e-3)
        assert report.verdict == CERTIFIED and report.failed_at is None
        assert [(d.j, d.r1, d.r2) for d in report.diagnostics] == [
            (j, (j,), (j,)) for j in range(3)
        ]
        assert report.clusters == ()
        assert np.array_equal(truncated(pi, report, 0.21), np.diag(np.diag(pi)))

    def test_unequal_survivor_counts_refine_at_that_position(self):
        # position 1 keeps columns 1 and 2 in its row, but only row 1 in its column
        pi = np.array([[0.95, 0.1, 0.0], [0.1, 0.9, 0.8], [0.0, 0.0, 0.9]])
        report = verify(pi, self.lam, self.lam, 0.21, 1.0)
        assert report.verdict == REFINE and report.failed_at == 1
        assert [(d.r1, d.r2) for d in report.diagnostics] == [((0,), (0,)), ((1, 2), (1,))]
        assert report.clusters == ()

    def test_cluster_within_t_lambda(self):
        pi = np.array([[0.7, 0.7, 0.0], [0.7, 0.7, 0.0], [0.0, 0.0, 1.0]])
        la = np.array([10.0, 10.005, 30.0])
        lb = np.array([11.0, 11.01, 31.0])
        report = verify(pi, la, lb, 0.21, 1e-3)
        assert report.verdict == CERTIFIED
        assert report.clusters == (Cluster(rows=(0, 1), cols=(0, 1)),)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_cluster_beyond_t_lambda_refines(self, side):
        # the gap is gauged on each side: one wide side is enough to refine
        pi = np.array([[0.7, 0.7, 0.0], [0.7, 0.7, 0.0], [0.0, 0.0, 1.0]])
        close, wide = np.array([10.0, 10.005, 30.0]), np.array([10.0, 10.5, 30.0])
        la, lb = (wide, close) if side == "a" else (close, wide)
        report = verify(pi, la, lb, 0.21, 1e-3)
        assert report.verdict == REFINE and report.failed_at == 0
        assert report.clusters == ()

    def test_overlapping_clusters_merge(self):
        # position 0 clusters {0, 1}; position 1 then truncates its link to 0
        # and clusters {1, 2}, which overlaps and merges into {0, 1, 2}
        pi = np.array([[0.6, 0.5, 0.0], [0.5, 0.9, 0.8], [0.0, 0.8, 0.9]])
        la = np.array([10.0, 10.001, 10.002])
        report = verify(pi, la, la, 0.21, 1e-3)
        assert [(d.r1, d.r2) for d in report.diagnostics] == [
            ((0, 1), (0, 1)), ((1, 2), (1, 2)), ((1, 2), (1, 2))
        ]
        assert report.verdict == CERTIFIED
        assert report.clusters == (Cluster(rows=(0, 1, 2), cols=(0, 1, 2)),)

    def test_disjoint_clusters_stay_apart(self):
        pi = np.kron(np.eye(2), np.full((2, 2), 0.7))
        la = np.array([10.0, 10.001, 20.0, 20.001])
        report = verify(pi, la, la, 0.21, 1e-3)
        assert report.verdict == CERTIFIED
        assert report.clusters == (Cluster((0, 1), (0, 1)), Cluster((2, 3), (2, 3)))

    def test_rejects_projection_of_another_shape(self):
        with pytest.raises(ValueError, match="projection of shape"):
            verify(np.eye(3), self.lam, self.lam[:2], 0.21, 1e-3)
