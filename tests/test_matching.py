import itertools
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eigentrack
from eigentrack.grid import point_of_phys
from eigentrack.matching import CostMatrix, apriori_match, cost_matrix, solve_assignment


def brute_force(values: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over injections of the shorter side into the longer:
    the minimal row-order sum, and the smallest column sequence attaining it
    (the tie rule solve_assignment promises)."""
    if values.shape[0] > values.shape[1]:
        values = values.T
    r, c = values.shape
    best, best_cols = np.inf, None
    for perm in itertools.permutations(range(c), r):   # ascending lexicographic order
        s = 0.0
        for j in range(r):
            s += float(values[j, perm[j]])
        if s < best:
            best, best_cols = s, perm
    return best_cols, best


def assert_gram_form_exact(snap_a, snap_b, B, w1: float, w2: float) -> int:
    """Check every cost entry against min(||u - v||_B, ||u + v||_B) computed
    pair by pair, to 1e-10 relative; return how many pairs have |g| > 0.99,
    the entries cost_matrix recomputes in difference form."""
    got = cost_matrix(snap_a, snap_b, B, w1, w2).values
    assert got.shape == (snap_a.n, snap_b.n) and got.size
    for j, u in enumerate(snap_a.eigenvectors.T):
        for l, v in enumerate(snap_b.eigenvectors.T):
            d, s = u - v, u + v
            dist = np.sqrt(max(min(d @ (B @ d), s @ (B @ s)), 0.0))
            want = w1 * abs(snap_a.eigenvalues[j] - snap_b.eigenvalues[l]) + w2 * dist
            assert abs(got[j, l] - want) <= 1e-10 * want, (j, l, got[j, l], want)
    g = snap_a.eigenvectors.T @ (B @ snap_b.eigenvectors)
    return int(np.sum(np.abs(g) > 0.99))


def as_cost(values) -> CostMatrix:
    return CostMatrix(values=np.asarray(values, dtype=float), w1=1.0, w2=0.0)


class TestSolveAssignment:
    def test_zero_diagonal(self):
        a = solve_assignment(as_cost([[0.0, 1.0], [1.0, 0.0]]))
        assert a.sigma == (0, 1)
        assert a.total_cost == 0.0

    def test_rectangular_random_vs_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            r = int(rng.integers(1, 4))
            c = int(rng.integers(r, 6))
            vals = rng.random((r, c))
            a = solve_assignment(as_cost(vals))
            assert a.total_cost == brute_force(vals)[1]

    def test_integer_matrices_exact(self):
        rng = np.random.default_rng(9)
        for r, c in [(2, 2), (3, 4), (4, 4), (5, 6), (6, 8)]:
            for _ in range(40):
                vals = rng.integers(0, 101, size=(r, c)).astype(float)
                a = solve_assignment(as_cost(vals))
                assert a.total_cost == brute_force(vals)[1]

    def test_lexicographic_tie_break(self):
        a = solve_assignment(as_cost(np.zeros((3, 5))))
        assert a.sigma == (0, 1, 2)
        a = solve_assignment(as_cost([[1.0, 1.0], [1.0, 1.0]]))
        assert a.sigma == (0, 1)

    def test_empty_sides(self):
        a = solve_assignment(as_cost(np.zeros((0, 4))))
        assert a.sigma == ()
        assert a.reorder == (0, 1, 2, 3)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = rng.random((int(rng.integers(2, 6)), int(rng.integers(6, 9))))
            assert solve_assignment(as_cost(vals)).sigma == solve_assignment(as_cost(7.3 * vals)).sigma

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_assignment(as_cost([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            solve_assignment(as_cost([[np.inf, 1.0]]))

    def test_tie_rule_oracle(self):
        rng = np.random.default_rng(2024)
        for case in range(1200):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(r, 7))
            if case % 5 == 4:
                vals = rng.random((r, c))
            else:
                vals = rng.integers(0, 4, size=(r, c)).astype(float)
            if case % 2:
                vals = vals.T
            cols, best = brute_force(vals)
            a = solve_assignment(as_cost(vals))
            assert a.sigma == cols, vals
            assert a.total_cost == best, vals

    def test_solver_leaves_scipy_optimize_unimported(self):
        # scipy.optimize costs about 0.2 s and 16 MB to import; the CLI and
        # the forked eigensolve workers must not pay for it
        src = str(Path(eigentrack.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "import eigentrack.cli\n"
            "from eigentrack.matching import CostMatrix, solve_assignment\n"
            "a = solve_assignment(CostMatrix(values=1.0 - np.eye(3), w1=1.0, w2=0.0))\n"
            "assert a.sigma == (0, 1, 2), a\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.integers(0, 100),
        )
    )
    def test_property_matches_brute_force(self, vals):
        vals = vals.astype(float)
        a = solve_assignment(as_cost(vals))
        assert a.total_cost == brute_force(vals)[1]


class TestCostMatrix:
    def test_worked_subinterval_entries(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        D = cost_matrix(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        quoted = {(0, 0): 57.7, (1, 1): 189.4, (2, 4): 204.8, (3, 7): 278.3}
        for (j, l), val in quoted.items():
            assert abs(D.values[j, l] - val) / val < 0.02

    def test_gram_form_matches_explicit_1d(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        negated_b = replace(snap_b, eigenvectors=-snap_b.eigenvectors)
        near = sum(
            assert_gram_form_exact(a, b, provider_1d.mass, 1.0, 200.0)
            for a, b in [(snap_a, snap_b), (snap_a, snap_a), (snap_b, negated_b)]
        )
        assert near > 0

    def test_gram_form_matches_explicit_2d(self, cfg_2d, provider_2d):
        snap_a = provider_2d.get(point_of_phys(["0.925", "0.925"], cfg_2d.box))
        snap_b = provider_2d.get(point_of_phys(["1.05", "0.925"], cfg_2d.box))
        assert_gram_form_exact(snap_a, snap_b, provider_2d.mass, cfg_2d.w1, cfg_2d.w2)

    def test_identical_snapshots_zero_diagonal(self, snapshots_41, provider_1d):
        snap, _ = snapshots_41
        D = cost_matrix(snap, snap, provider_1d.mass, 1.0, 0.0)
        assert np.all(np.diag(D.values) == 0.0)

    def test_negated_vectors_zero_diagonal(self, snapshots_41, provider_1d):
        snap, _ = snapshots_41
        flipped = replace(snap, eigenvectors=-snap.eigenvectors)
        D = cost_matrix(snap, flipped, provider_1d.mass, 0.0, 200.0)
        assert np.all(np.diag(D.values) == 0.0)

    def test_sign_flip_invariance(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        rng = np.random.default_rng(3)
        signs = np.where(rng.random(snap_b.n) < 0.5, -1.0, 1.0)
        flipped = replace(snap_b, eigenvectors=snap_b.eigenvectors * signs)
        base = cost_matrix(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        flip = cost_matrix(snap_a, flipped, provider_1d.mass, 1.0, 200.0)
        assert np.array_equal(base.values, flip.values)

    def test_entries_nonnegative_finite(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        D = cost_matrix(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        assert np.all(np.isfinite(D.values)) and np.all(D.values >= 0)

    def test_transposition_symmetry(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        D_ab = cost_matrix(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        D_ba = cost_matrix(snap_b, snap_a, provider_1d.mass, 1.0, 200.0)
        assert np.allclose(D_ab.values, D_ba.values.T, rtol=0, atol=1e-12)

    def test_mesh_mismatch_rejected(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        other = replace(snap_b, fingerprint="different")
        with pytest.raises(ValueError):
            cost_matrix(snap_a, other, provider_1d.mass, 1.0, 200.0)

    def test_empty_side(self, snapshots_41, provider_1d):
        snap_a, _ = snapshots_41
        empty = replace(
            snap_a,
            eigenvalues=np.zeros(0),
            eigenvectors=np.zeros((snap_a.eigenvectors.shape[0], 0)),
        )
        D = cost_matrix(snap_a, empty, provider_1d.mass, 1.0, 200.0)
        assert D.values.shape == (snap_a.n, 0)
        assert solve_assignment(D).sigma == ()


class TestAprioriMatch:
    def test_worked_subinterval(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        assignment, matched_a, matched_b = apriori_match(
            snap_a, snap_b, provider_1d.mass, 1.0, 200.0
        )
        assert tuple(s + 1 for s in assignment.sigma) == (1, 2, 5, 8)
        assert matched_a is snap_a
        expected = (38.2, 81.1, 188.6, 260.9, 109.7, 129.4, 189.9, 214.8, 261.9)
        assert np.all(np.abs(matched_b.eigenvalues - expected) / np.array(expected) < 0.015)

    def test_identity_on_equal_snapshots(self, snapshots_41, provider_1d):
        snap, _ = snapshots_41
        assignment, ma, mb = apriori_match(snap, snap, provider_1d.mass, 1.0, 200.0)
        assert assignment.sigma == tuple(range(snap.n))
        assert np.array_equal(mb.eigenvalues, snap.eigenvalues)

    def test_reversed_metadata_restored(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        reversed_b = replace(
            snap_b,
            eigenvalues=snap_b.eigenvalues[::-1].copy(),
            eigenvectors=snap_b.eigenvectors[:, ::-1].copy(),
        )
        assignment, ma, mb = apriori_match(snap_a, reversed_b, provider_1d.mass, 1.0, 200.0)
        # matched positions must pair the same eigenvalues as the unshuffled run
        base_assignment, _, base_mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        n = min(snap_a.n, snap_b.n)
        assert np.allclose(mb.eigenvalues[:n], base_mb.eigenvalues[:n], rtol=0, atol=0)
        expected_perm = tuple(snap_b.n - 1 - s for s in base_assignment.sigma)
        assert assignment.sigma == expected_perm

    def test_matched_positions_consistent(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        assignment, ma, mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        for j, (ia, ib) in enumerate(assignment.pairs()):
            assert ma.eigenvalues[j] == snap_a.eigenvalues[ia]
            assert mb.eigenvalues[j] == snap_b.eigenvalues[ib]

    def test_unmatched_keep_ascending_order(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        assignment, _, mb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        tail = mb.eigenvalues[len(assignment.sigma) :]
        assert np.all(np.diff(tail) >= 0)
