import numpy as np
import pytest

from covclust.ingest import read_csv_matrix
from covclust.matrices import (
    SymMatrix,
    UniformityParams,
    hard_threshold,
    sym_to_csv,
    uniformity_diagnostics,
)
from rates import min_eigenvalue, operator_norm


def sym(entries, labels=None):
    arr = np.asarray(entries, dtype=float)
    if labels is None:
        labels = tuple(f"x{i + 1}" for i in range(arr.shape[0]))
    return SymMatrix(arr, tuple(labels))


def random_sym(rng, j, sparsity=0.5):
    base = rng.normal(size=(j, j))
    base = (base + base.T) / 2.0
    keep = rng.random(size=(j, j)) < sparsity
    keep = keep & keep.T
    np.fill_diagonal(keep, True)
    return sym(np.where(keep, base, 0.0))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym([[1.0, 0.2], [0.3, 1.0]])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            SymMatrix(np.eye(2), ("a",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            SymMatrix(np.eye(2), ("a", "a"))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sym([[1.0, np.nan], [np.nan, 1.0]])

    def test_entries_are_read_only(self):
        m = sym(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_submatrix_picks_rows_and_columns(self):
        m = sym([[1.0, 0.5, 0.2], [0.5, 2.0, 0.0], [0.2, 0.0, 3.0]], "abc")
        s = m.submatrix([2, 0])
        assert s.labels == ("c", "a")
        np.testing.assert_array_equal(s.entries, [[3.0, 0.2], [0.2, 1.0]])


class TestHardThreshold:
    def test_hand_worked_three_by_three(self):
        m = sym([[0.1, 0.2, 0.05], [0.2, 1.0, -0.13], [0.05, -0.13, 0.9]])
        out = hard_threshold(m, 0.13)
        expected = [[0.0, 0.2, 0.0], [0.2, 1.0, -0.13], [0.0, -0.13, 0.9]]
        np.testing.assert_array_equal(out.entries, expected)

    def test_diagonal_is_not_exempt(self):
        m = sym([[0.01, 0.0], [0.0, 1.0]])
        out = hard_threshold(m, 0.5)
        assert out.entries[0, 0] == 0.0
        assert out.entries[1, 1] == 1.0

    def test_boundary_value_is_kept(self):
        m = sym([[1.0, 0.25], [0.25, 1.0]])
        out = hard_threshold(m, 0.25)
        assert out.entries[0, 1] == 0.25

    def test_zero_level_is_identity(self):
        rng = np.random.default_rng(7)
        m = random_sym(rng, 6)
        out = hard_threshold(m, 0.0)
        np.testing.assert_array_equal(out.entries, m.entries)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match=r"^threshold must be finite and >= 0, got -0\.1$"):
            hard_threshold(sym(np.eye(2)), -0.1)

    def test_nonfinite_level_rejected(self):
        with pytest.raises(ValueError, match=r"^threshold must be finite and >= 0, got nan$"):
            hard_threshold(sym(np.eye(2)), float("nan"))

    def test_preserves_symmetry_and_labels(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_sym(rng, 5)
            out = hard_threshold(m, float(rng.uniform(0.0, 1.0)))
            np.testing.assert_array_equal(out.entries, out.entries.T)
            assert out.labels == m.labels

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        m = random_sym(rng, 7)
        out1 = hard_threshold(m, 0.4)
        out2 = hard_threshold(out1, 0.4)
        np.testing.assert_array_equal(out1.entries, out2.entries)

    def test_support_shrinks_with_level(self):
        rng = np.random.default_rng(17)
        m = random_sym(rng, 8)
        lo = hard_threshold(m, 0.2)
        hi = hard_threshold(m, 0.8)
        support_hi = hi.entries != 0.0
        support_lo = lo.entries != 0.0
        assert np.all(~support_hi | support_lo)

    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(19)
        m = random_sym(rng, 6)
        perm = rng.permutation(6)
        permuted = SymMatrix(m.entries[np.ix_(perm, perm)], tuple(m.labels[i] for i in perm))
        left = hard_threshold(permuted, 0.3).entries
        right = hard_threshold(m, 0.3).entries[np.ix_(perm, perm)]
        np.testing.assert_array_equal(left, right)

    def test_keeps_positive_definiteness_under_small_perturbation(self):
        # When the thresholded matrix stays within the smallest eigenvalue
        # of a positive definite target, definiteness survives.
        rng = np.random.default_rng(23)
        for _ in range(10):
            base = rng.normal(size=(6, 6))
            target = sym(base @ base.T + 6.0 * np.eye(6))
            noise = rng.normal(scale=0.01, size=(6, 6))
            noisy = sym(target.entries + (noise + noise.T) / 2.0)
            out = hard_threshold(noisy, 0.02)
            gap = operator_norm(out.entries - target.entries)
            if gap < min_eigenvalue(target.entries):
                assert min_eigenvalue(out.entries) > 0.0


class TestUniformityDiagnostics:
    def test_identity_at_q_zero(self):
        max_diag, max_row = uniformity_diagnostics(sym(np.eye(3)), 0.0)
        assert max_diag == 1.0
        assert max_row == 1.0

    def test_zero_entries_do_not_count_at_q_zero(self):
        m = sym([[1.0, 0.0, 0.4], [0.0, 2.0, 0.0], [0.4, 0.0, 1.0]])
        max_diag, max_row = uniformity_diagnostics(m, 0.0)
        assert max_diag == 2.0
        assert max_row == 2.0  # row 1: diagonal entry 2 and two exact zeros

    def test_fractional_power(self):
        m = sym([[1.0, 0.25], [0.25, 1.0]])
        _, max_row = uniformity_diagnostics(m, 0.5)
        assert max_row == pytest.approx(1.0 + 0.5, rel=1e-14)

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\), got 1\.0$"):
            uniformity_diagnostics(sym(np.eye(2)), 1)
        with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\), got -0\.1$"):
            uniformity_diagnostics(sym(np.eye(2)), -0.1)

    def test_params_validation(self):
        with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\), got 1\.2$"):
            UniformityParams(q=1.2, c0=1.0, M=1.0)
        with pytest.raises(ValueError):
            UniformityParams(q=0.0, c0=-1.0, M=1.0)
        p = UniformityParams(q=0.5, c0=2.0, M=1.5)
        assert p.q == 0.5


class TestSerialization:
    def test_csv_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(41)
        m = random_sym(rng, 5)
        path = tmp_path / "m.csv"
        sym_to_csv(m, path)
        labels, entries, _ = read_csv_matrix(path)
        assert labels == m.labels
        np.testing.assert_array_equal(entries, m.entries)

    def test_csv_uses_shortest_round_trip_floats(self, tmp_path):
        # -0.0 keeps its sign, 5e-324 is the smallest subnormal and 1e16 the
        # first power of ten that repr writes with an exponent
        m = sym(
            [[0.1, -0.0, 5e-324], [-0.0, 0.30000000000000004, 1e16], [5e-324, 1e16, 0.2]],
            ("a", "b", "c"),
        )
        path = tmp_path / "m.csv"
        sym_to_csv(m, path)
        assert path.read_text().splitlines() == [
            "a,b,c",
            "0.1,-0.0,5e-324",
            "-0.0,0.30000000000000004,1e+16",
            "5e-324,1e+16,0.2",
        ]
        _, entries, _ = read_csv_matrix(path)
        # array_equal cannot tell -0.0 from 0.0; the bit patterns can
        np.testing.assert_array_equal(entries.view(np.int64), m.entries.view(np.int64))
