import numpy as np
import pytest

from covclust import panel as panel_mod
from covclust.errors import DataError, DegenerateColumnError
from covclust.panel import (
    TimeSeriesPanel,
    sample_covariance,
    spearman_matrix,
    standardize,
)
from oracles import midranks, naive_covariance, naive_spearman


def make_panel(values, labels=None):
    arr = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"x{i + 1}" for i in range(arr.shape[1]))
    return TimeSeriesPanel(arr, tuple(labels))


def random_panel(rng, t, j):
    return make_panel(rng.normal(size=(t, j)))


class TestPanelValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_panel([[1.0, 2.0], [np.nan, 0.0]])

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            make_panel([[1.0, 2.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            make_panel([[1.0, 2.0], [3.0, 4.0]], ("a", "a"))

    def test_values_read_only(self):
        p = make_panel([[1.0], [2.0]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.0


class TestStandardize:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(3)
        p = random_panel(rng, 200, 4)
        z = standardize(p)
        np.testing.assert_allclose(z.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.values.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_uses_t_minus_one_divisor(self):
        # sd of [0, 2] with the T-1 divisor is sqrt(2), so entries become
        # -1/sqrt(2) and +1/sqrt(2).
        z = standardize(make_panel([[0.0], [2.0]]))
        np.testing.assert_allclose(z.values[:, 0], [-2**-0.5, 2**-0.5], rtol=1e-15)

    def test_idempotent_to_float_precision(self):
        rng = np.random.default_rng(5)
        z = standardize(random_panel(rng, 80, 3))
        z2 = standardize(z)
        np.testing.assert_allclose(z2.values, z.values, atol=1e-12)

    def test_column_at_the_float_limit_standardizes(self):
        col = np.linspace(-3.0, 3.0, 60)
        col[[5, 6]] = [1e308, -1e308]
        z = standardize(make_panel(np.column_stack([col, np.arange(60.0)]), ("s", "t")))
        assert np.all(np.isfinite(z.values))
        np.testing.assert_allclose(z.values.std(axis=0, ddof=1), 1.0, rtol=1e-12)
        assert len(np.unique(z.values[:, 0])) == 60

    def test_power_of_two_scale_keeps_the_bytes(self):
        # the scale that keeps the squares finite is exact, so columns of any
        # ordinary magnitude standardize to the unscaled formula's bytes
        rng = np.random.default_rng(11)
        v = rng.normal(size=(90, 5)) * 10.0 ** np.array([-100.0, -7.0, 0.0, 9.0, 100.0])
        want = (v - v.mean(axis=0)) / v.std(axis=0, ddof=1)
        assert standardize(make_panel(v)).values.tobytes() == want.tobytes()

    def test_reports_every_constant_column(self):
        p = make_panel([[1.0, 5.0, 2.0], [1.0, 6.0, 2.0], [1.0, 7.0, 2.0]], ("a", "b", "c"))
        with pytest.raises(DegenerateColumnError) as exc:
            standardize(p)
        assert exc.value.labels == ("a", "c")


class TestSampleCovariance:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        p = random_panel(rng, 60, 5)
        got = sample_covariance(p)
        np.testing.assert_allclose(got.entries, naive_covariance(p.values), atol=1e-12)
        assert got.labels == p.labels

    def test_one_over_t_normalization(self):
        # Demeaned column (-1, 1): the 1/T divisor gives variance 1, the
        # 1/(T-1) divisor would give 2.
        got = sample_covariance(make_panel([[0.0], [2.0]]))
        assert got.entries[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        p = random_panel(rng, 35, 8)
        e = sample_covariance(p).entries
        np.testing.assert_array_equal(e, e.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for t, j in [(10, 4), (5, 9), (100, 3)]:
            p = random_panel(rng, t, j)
            eigs = np.linalg.eigvalsh(sample_covariance(p).entries)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])

    def test_permutation_equivariance_is_bitwise(self):
        rng = np.random.default_rng(13)
        p = random_panel(rng, 40, 6)
        perm = rng.permutation(6)
        q = TimeSeriesPanel(p.values[:, perm], tuple(p.labels[i] for i in perm))
        left = sample_covariance(q).entries
        right = sample_covariance(p).entries[np.ix_(perm, perm)]
        np.testing.assert_array_equal(left, right)

    def test_run_to_run_determinism(self):
        rng = np.random.default_rng(15)
        p = random_panel(rng, 50, 5)
        a = sample_covariance(p).entries
        b = sample_covariance(make_panel(p.values.copy())).entries
        np.testing.assert_array_equal(a, b)

    def test_overflowing_panel_is_a_data_error_naming_its_entry(self):
        values = np.random.default_rng(17).normal(size=(20, 3))
        values[[4, 11], 1] = 1e308, -1e308
        p = make_panel(values, ("a", "b", "c"))
        # (b, b) overflows too; row-major order names (a, b) first
        with pytest.raises(DataError, match=r"entry \('a', 'b'\) is not finite"):
            sample_covariance(p)
        assert np.isfinite(sample_covariance(standardize(p)).entries).all()


class TestSpearman:
    def test_matches_rank_then_correlate_oracle(self):
        rng = np.random.default_rng(21)
        p = random_panel(rng, 40, 5)
        np.testing.assert_allclose(spearman_matrix(p).entries, naive_spearman(p.values), atol=1e-12)

    def test_handles_ties_with_average_ranks(self):
        rng = np.random.default_rng(23)
        vals = rng.integers(0, 4, size=(60, 4)).astype(float)  # heavy ties
        got = spearman_matrix(make_panel(vals)).entries
        np.testing.assert_allclose(got, naive_spearman(vals), atol=1e-12)

    def test_monotone_transform_invariance_is_exact(self):
        rng = np.random.default_rng(25)
        p = random_panel(rng, 50, 4)
        before = spearman_matrix(p).entries
        warped = np.column_stack(
            [
                np.exp(p.values[:, 0]),
                p.values[:, 1] ** 3,
                np.arctan(p.values[:, 2]),
                5.0 * p.values[:, 3] + 2.0,
            ]
        )
        after = spearman_matrix(make_panel(warped)).entries
        np.testing.assert_array_equal(before, after)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(19)
        p = random_panel(rng, 30, 6)
        e = spearman_matrix(p).entries
        np.testing.assert_array_equal(np.diag(e), np.ones(6))
        assert np.all(np.abs(e) <= 1.0)

    def test_perfectly_correlated_pair(self):
        x = np.arange(10.0)
        p = make_panel(np.column_stack([x, 2.0 * x + 1.0, -x]))
        e = spearman_matrix(p).entries
        assert e[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert e[0, 2] == pytest.approx(-1.0, abs=1e-15)

    def test_all_tied_column_raises(self):
        p = make_panel([[1.0, 7.0, 2.0, 0.0], [2.0, 7.0, 2.0, 0.0], [3.0, 7.0, 1.0, 0.0]],
                       ("a", "d", "b", "c"))
        with pytest.raises(DegenerateColumnError) as exc:
            spearman_matrix(p)
        assert exc.value.labels == ("d", "c")
        assert exc.value.context == "spearman"

    def test_permutation_equivariance_is_bitwise(self):
        rng = np.random.default_rng(27)
        p = random_panel(rng, 30, 5)
        perm = rng.permutation(5)
        q = TimeSeriesPanel(p.values[:, perm], tuple(p.labels[i] for i in perm))
        left = spearman_matrix(q).entries
        right = spearman_matrix(p).entries[np.ix_(perm, perm)]
        np.testing.assert_array_equal(left, right)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(29)
        e = spearman_matrix(random_panel(rng, 25, 7)).entries
        np.testing.assert_array_equal(e, e.T)


def per_pair_spearman(values):
    """Rank correlation with one ``np.dot`` per column pair on oracle midranks."""
    ranks = np.column_stack([midranks(values[:, a]) for a in range(values.shape[1])])
    c = ranks - ranks.mean(axis=0)
    j = c.shape[1]
    gram = np.empty((j, j))
    for a in range(j):
        for b in range(a, j):
            gram[a, b] = gram[b, a] = float(np.dot(c[:, a], c[:, b]))
    d = np.sqrt(np.diag(gram))
    out = np.clip(gram / (d[:, None] * d[None, :]), -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return out


class TestWholeMatrixSpearman:
    @pytest.mark.parametrize("levels", [0, 1, 2, 3, 7])
    def test_midranks_match_oracle_bitwise(self, levels):
        rng = np.random.default_rng(31 + levels)
        if levels:
            vals = rng.integers(0, levels + 1, size=(57, 6)).astype(float)
            vals[:, 0] = 0.0  # one column entirely tied
        else:
            vals = rng.normal(size=(57, 6))
        want = np.column_stack([midranks(vals[:, a]) for a in range(6)])
        np.testing.assert_array_equal(panel_mod._midranks(panel_mod._rank_codes(vals)), want)

    @pytest.mark.parametrize("tied", [False, True, "one-column"])
    def test_midranks_of_every_window_match_oracle_bitwise(self, tied):
        # T = 18 gives every window length from 2 to 18, so both sides of
        # the packing width's steps (t = 2, 3, 4, 5, 8, 9, 16, 17).
        rng = np.random.default_rng(38 if tied is True else 37)
        t = 18
        if tied is True:
            vals = rng.integers(0, 3, size=(t, 5)).astype(float)
            vals[:, 0] = 4.0  # one column entirely tied
            vals[:9, 3] = -0.0
            vals[9:, 3] = 0.0  # signed zeros compare equal, so tie
        else:
            vals = rng.normal(size=(t, 5))
            if tied:
                vals[::4, 2] = vals[1, 2]  # six equal values in column 2 only
        tied = bool(tied)
        codes = panel_mod._rank_codes(vals)
        assert codes.shape == (5, t) and codes.dtype == np.int32
        # a column has no ties exactly when its largest code is T - 1
        assert np.any(codes.max(axis=1) < t - 1) == tied
        for a in range(t - 1):
            for b in range(a + 2, t + 1):
                window = vals[a:b]
                want = np.column_stack([midranks(window[:, k]) for k in range(5)])
                np.testing.assert_array_equal(panel_mod._midranks(codes[:, a:b]), want)
                np.testing.assert_array_equal(panel_mod._midranks(panel_mod._rank_codes(window)), want)
                # centred as _spearman asks, with the tie pass skipped on an untied panel
                centre = (b - a + 1) / 2.0
                centred = panel_mod._midranks(codes[:, a:b], centre, tied)
                np.testing.assert_array_equal(centred, want - centre)

    def test_rank_codes_are_dense_and_ordered(self):
        vals = np.array([[3.0, 1.0], [-2.0, 1.0], [3.0, 1.0], [0.5, 1.0]])
        np.testing.assert_array_equal(
            panel_mod._rank_codes(vals), [[2, 0, 2, 1], [0, 0, 0, 0]]
        )

    def test_midranks_with_int64_keys_match_oracle_bitwise(self):
        # 40000 codes need 16 position bits, and 40000 << 16 >= 2**31.
        vals = np.random.default_rng(41).permutation(40_000).astype(float)[:, None]
        codes = panel_mod._rank_codes(vals)
        assert panel_mod._sort_window(codes)[1].dtype == np.int64
        np.testing.assert_array_equal(panel_mod._midranks(codes), midranks(vals[:, 0])[:, None])

    @pytest.mark.parametrize("top, dtype", [(2**30 - 2, np.int32), (2**30 - 1, np.int64)])
    def test_sort_window_key_width_at_the_int32_edge(self, top, dtype):
        # t = 2 packs one position bit: (top + 1) << 1 reaches 2**31 only
        # for the larger code, which must move to int64 keys.
        codes = np.array([[top, 0], [0, top]], dtype=np.int32)
        order, srt = panel_mod._sort_window(codes)
        assert srt.dtype == dtype
        np.testing.assert_array_equal(order, [[1, 0], [2, 3]])
        np.testing.assert_array_equal(srt, [[0, top], [0, top]])

    @pytest.mark.parametrize(
        "t, j, tied", [(3, 2, False), (40, 9, True), (333, 17, False), (1000, 12, True), (1999, 8, False)]
    )
    def test_matches_per_pair_reference_bitwise(self, t, j, tied):
        rng = np.random.default_rng(t * 100 + j)
        vals = rng.integers(0, 5, size=(t, j)).astype(float) if tied else rng.normal(size=(t, j))
        got = spearman_matrix(make_panel(vals)).entries
        np.testing.assert_array_equal(got, per_pair_spearman(vals))

    def test_exactness_bound(self):
        bound = panel_mod._EXACT_RANK_GRAM_MAX_T
        assert bound**3 <= 2**53 < (bound + 1) ** 3

    def test_long_panel_falls_back_to_row_order_gram(self, monkeypatch):
        rng = np.random.default_rng(41)
        vals = rng.integers(0, 6, size=(50, 5)).astype(float)
        want = spearman_matrix(make_panel(vals)).entries
        calls = []
        row_order = panel_mod._pairwise_gram

        def spy(z, scale):
            calls.append(z.shape)
            return row_order(z, scale)

        monkeypatch.setattr(panel_mod, "_pairwise_gram", spy)
        spearman_matrix(make_panel(vals[:20]))
        assert calls == []
        monkeypatch.setattr(panel_mod, "_EXACT_RANK_GRAM_MAX_T", 49)
        got = spearman_matrix(make_panel(vals)).entries
        assert calls == [(50, 5)]
        np.testing.assert_array_equal(got, want)



def row_by_row_gram(z):
    """``sum_t z[t, a] * z[t, b]`` added one row at a time, in row order."""
    j = z.shape[1]
    out = np.zeros((j, j))
    for row in z:
        out = out + np.multiply.outer(row, row)
    return out


def laid_out(z, layout):
    """``z`` itself, a Fortran-ordered copy, or a column-strided view of equal values."""
    if layout == "fortran":
        return np.asfortranarray(z)
    if layout == "strided":
        wide = np.zeros((z.shape[0], 2 * z.shape[1]))
        wide[:, ::2] = z
        return wide[:, ::2]
    return z


class TestRowOrderGram:
    # A plain einsum sums a lone column pairwise; the seeds give data on which
    # that departs from row order for every lone column with T >= 3 (at
    # T = 3 it does on about a fifth of random draws).  Without the copy to
    # C order, einsum sums a Fortran-ordered block out of row order.
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    @pytest.mark.parametrize(
        "t, j",
        [(2, 1), (3, 1), (700, 1), (1677, 1), (120, 2), (333, 3), (91, 7), (1200, 16), (40, 130)],
    )
    def test_matches_row_by_row_sum_bitwise_in_each_layout(self, layout, t, j):
        rng = np.random.default_rng(t + 7 * j + 5)
        z = rng.normal(size=(t, j)) * 10.0 ** rng.uniform(-4, 4, size=j)
        z -= z.mean(axis=0)
        got = panel_mod._pairwise_gram(laid_out(z, layout), 1.0)
        np.testing.assert_array_equal(got, row_by_row_gram(z))

    # The scale multiplies the finished row-order sum once, not each term:
    # 2**16 scales exactly, 200 rounds, and either way the bits must match.
    @pytest.mark.parametrize("scale", [1 << 16, 200])
    @pytest.mark.parametrize("t, j", [(2, 1), (700, 1), (120, 2), (333, 3), (91, 7), (1200, 16), (40, 130)])
    def test_matches_row_by_row_sum_bitwise(self, scale, t, j):
        rng = np.random.default_rng(t + 7 * j + 5)
        z = rng.normal(size=(t, j)) * 10.0 ** rng.uniform(-4, 4, size=j)
        z -= z.mean(axis=0)
        got = panel_mod._pairwise_gram(z, float(scale))
        np.testing.assert_array_equal(got, row_by_row_gram(z) * float(scale))
