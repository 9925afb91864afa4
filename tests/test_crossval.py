import tracemalloc

import numpy as np
import pytest

from covclust.crossval import (
    CvConfig,
    CvTemplate,
    cv_result_to_json_obj,
    default_grid,
    draw_split,
    empirical_loss,
    select_threshold,
    _grid_losses,
)
from covclust.errors import DegenerateColumnError
from covclust.matrices import SymMatrix, hard_threshold
from covclust.panel import TimeSeriesPanel, sample_covariance, spearman_matrix


def gaussian_panel(seed, t, j, sigma=None):
    rng = np.random.default_rng(seed)
    if sigma is None:
        x = rng.normal(size=(t, j))
    else:
        x = rng.normal(size=(t, j)) @ np.linalg.cholesky(sigma).T
    return TimeSeriesPanel(x, tuple(f"x{i + 1}" for i in range(j)))


class TestCvConfig:
    def test_rejects_small_segments(self):
        with pytest.raises(ValueError):
            CvConfig(t1=1, t2=10, grid=(0.0,))
        with pytest.raises(ValueError):
            CvConfig(t1=10, t2=1, grid=(0.0,))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            CvConfig(t1=5, t2=5, grid=())
        with pytest.raises(ValueError):
            CvConfig(t1=5, t2=5, grid=(-0.1, 0.5))
        with pytest.raises(ValueError):
            CvConfig(t1=5, t2=5, grid=(0.5, 0.1))

    def test_rejects_nonpositive_splits(self):
        with pytest.raises(ValueError):
            CvConfig(t1=5, t2=5, grid=(0.0,), n_splits=0)


class TestDefaultGrid:
    def test_spans_zero_to_max_off_diagonal(self):
        p = gaussian_panel(1, 100, 5)
        est = sample_covariance(p)
        grid = default_grid(est, size=50)
        off = np.abs(est.entries - np.diag(np.diag(est.entries)))
        assert len(grid) == 50
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(float(off.max()), rel=1e-15)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_degenerate_grid_for_diagonal_estimate(self):
        p = TimeSeriesPanel([[1.0], [2.0], [0.0]], ("a",))
        assert default_grid(sample_covariance(p), 50) == (0.0,)


class TestDrawSplit:
    def test_shapes_and_adjacency(self):
        cfg = CvConfig(t1=120, t2=240, grid=(0.0,), seed=4)
        for i in range(50):
            (a0, a1), (b0, b1) = draw_split(540, cfg, i)
            assert a1 - a0 == 120
            assert b1 - b0 == 240
            assert b0 == a1  # comparison rows follow immediately
            assert 0 <= a0 and b1 <= 540

    def test_offset_varies_and_covers_range(self):
        cfg = CvConfig(t1=10, t2=10, grid=(0.0,), seed=0)
        offsets = {draw_split(25, cfg, i)[0][0] for i in range(300)}
        assert offsets == {0, 1, 2, 3, 4, 5}  # uniform over {0,...,t-t1-t2}

    def test_redrawable_independently(self):
        cfg = CvConfig(t1=10, t2=10, grid=(0.0,), seed=9)
        again = draw_split(100, cfg, 7)
        assert draw_split(100, cfg, 7) == again

    def test_seed_changes_splits(self):
        a = CvConfig(t1=10, t2=10, grid=(0.0,), seed=1)
        b = CvConfig(t1=10, t2=10, grid=(0.0,), seed=2)
        draws_a = [draw_split(200, a, i) for i in range(20)]
        draws_b = [draw_split(200, b, i) for i in range(20)]
        assert draws_a != draws_b

    def test_rejects_oversized_request(self):
        cfg = CvConfig(t1=30, t2=30, grid=(0.0,))
        with pytest.raises(ValueError, match="exceeds"):
            draw_split(59, cfg, 0)


class TestEmpiricalLoss:
    def test_matches_direct_recomputation(self):
        p = gaussian_panel(11, 60, 4)
        splits = [((0, 20), (20, 60)), ((5, 25), (25, 60))]
        s = 0.15
        direct = []
        for r1, r2 in splits:
            e1 = sample_covariance(TimeSeriesPanel(p.values[r1[0]:r1[1]], p.labels))
            e2 = sample_covariance(TimeSeriesPanel(p.values[r2[0]:r2[1]], p.labels))
            d = hard_threshold(e1, s).entries - e2.entries
            direct.append(float(np.sum(d * d)))
        want = float(np.mean(direct))
        got = empirical_loss(p, s, splits, "covariance")
        assert got == pytest.approx(want, rel=1e-14)

    def test_rejects_negative_threshold(self):
        p = gaussian_panel(12, 30, 3)
        with pytest.raises(ValueError):
            empirical_loss(p, -0.5, [((0, 10), (10, 30))])

    @pytest.mark.parametrize(
        "split", [((0, 10), (10, 31)), ((-1, 10), (10, 30)), ((0, 10), (10, 11)), ((5, 5), (5, 30))]
    )
    def test_rejects_row_ranges_outside_the_panel_or_too_short(self, split):
        p = gaussian_panel(12, 30, 3)
        with pytest.raises(ValueError, match="row range"):
            empirical_loss(p, 0.1, [split])

    def test_thresholding_beats_no_thresholding_under_independence(self):
        # Columns are independent, so zeroing small spurious cross terms
        # should win for most seeds.
        wins = 0
        for seed in range(20):
            p = gaussian_panel(100 + seed, 600, 10)
            splits = [draw_split(600, CvConfig(t1=200, t2=400, grid=(0.0,), seed=seed), i) for i in range(20)]
            if empirical_loss(p, 0.5, splits) < empirical_loss(p, 0.0, splits):
                wins += 1
        assert wins >= 18


class TestSelectThreshold:
    def test_losses_are_means_of_common_splits(self):
        p = gaussian_panel(21, 90, 4)
        cfg = CvConfig(t1=30, t2=60, grid=(0.0, 0.1, 0.2), n_splits=8, seed=3)
        res = select_threshold(p, cfg)
        assert res.per_split_losses.shape == (8, 3)
        np.testing.assert_allclose(res.losses, res.per_split_losses.mean(axis=0), rtol=1e-15)
        splits = [draw_split(90, cfg, i) for i in range(8)]
        for gi, s in enumerate(cfg.grid):
            assert res.losses[gi] == pytest.approx(empirical_loss(p, s, splits), rel=1e-14)

    def test_ties_resolve_to_larger_threshold(self):
        # All entries of every segment estimate sit far below the two top
        # grid points, so those thresholds zero everything and tie exactly.
        p = gaussian_panel(22, 80, 3)
        scale = 1e-6
        tiny = TimeSeriesPanel(p.values * scale, p.labels)
        cfg = CvConfig(t1=20, t2=40, grid=(5.0, 9.0), n_splits=4, seed=0)
        res = select_threshold(tiny, cfg)
        assert res.losses[0] == res.losses[1]
        assert res.selected == 9.0

    def test_deterministic_across_runs(self):
        p = gaussian_panel(23, 120, 5)
        cfg = CvConfig(t1=40, t2=80, grid=tuple(np.linspace(0, 0.4, 9)), n_splits=10, seed=5)
        a = select_threshold(p, cfg)
        b = select_threshold(p, cfg)
        assert a.selected == b.selected
        assert a.losses == b.losses
        np.testing.assert_array_equal(a.per_split_losses, b.per_split_losses)

    def test_selected_is_last_argmin(self):
        p = gaussian_panel(24, 100, 4)
        cfg = CvTemplate(n_splits=12, grid_size=20, seed=1).for_panel(p, sample_covariance(p))
        res = select_threshold(p, cfg)
        losses = np.array(res.losses)
        assert res.selected == res.grid[np.flatnonzero(losses == losses.min())[-1]]

    def test_degenerate_column_reports_split(self):
        vals = np.column_stack([np.ones(40), np.arange(40.0)])
        p = TimeSeriesPanel(vals, ("const", "trend"))
        cfg = CvConfig(t1=10, t2=20, grid=(0.0,), n_splits=2, seed=0)
        with pytest.raises(DegenerateColumnError) as exc:
            select_threshold(p, cfg, "spearman")
        assert "split" in str(exc.value)
        assert "const" in exc.value.labels

    @pytest.mark.parametrize(
        "kind, estimator", [("covariance", sample_covariance), ("spearman", spearman_matrix)]
    )
    def test_per_split_losses_match_independent_estimates_bitwise(self, kind, estimator):
        p = gaussian_panel(26, 150, 7)
        cfg = CvConfig(t1=33, t2=66, grid=tuple(np.linspace(0.0, 0.6, 13)), n_splits=9, seed=4)
        res = select_threshold(p, cfg, kind)
        for v in range(cfg.n_splits):
            r1, r2 = draw_split(150, cfg, v)
            e1 = estimator(TimeSeriesPanel(p.values[r1[0]:r1[1]], p.labels)).entries
            e2 = estimator(TimeSeriesPanel(p.values[r2[0]:r2[1]], p.labels)).entries
            want = _grid_losses(e1, e2, cfg.grid)
            np.testing.assert_array_equal(res.per_split_losses[v], want)

    @pytest.mark.parametrize("kind", ["covariance", "spearman"])
    def test_memory_does_not_grow_with_splits(self, kind):
        # 2 * 40 split estimates of 150 x 150 would hold 14 MB at once; a
        # streamed loop keeps a few matrices alive at a time.
        p = gaussian_panel(27, 120, 150)
        cfg = CvConfig(t1=30, t2=60, grid=(0.0, 0.2), n_splits=40, seed=1)
        matrix_bytes = 150 * 150 * 8
        tracemalloc.start()
        try:
            select_threshold(p, cfg, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * matrix_bytes

    def test_spearman_kind_runs(self):
        p = gaussian_panel(25, 90, 4)
        cfg = CvTemplate(n_splits=5, grid_size=10, seed=2).for_panel(p, spearman_matrix(p))
        res = select_threshold(p, cfg, "spearman")
        assert 0.0 <= res.selected <= res.grid[-1]


class TestIdentityCovarianceSelection:
    def test_mostly_selects_diagonal_support(self):
        # With truly independent unit-variance columns and a grid reaching
        # past the spurious-correlation scale, the tie-to-larger rule climbs
        # the flat region: the choice clears the noise floor, stays below the
        # diagonal, and zeroing it leaves the full-sample estimate diagonal.
        t, j, n_seeds = 600, 10, 50
        grid = tuple(round(0.05 * i, 10) for i in range(21))  # 0, 0.05, ..., 1
        hits = 0
        for seed in range(n_seeds):
            p = gaussian_panel(1000 + seed, t, j)
            cfg = CvConfig(t1=133, t2=266, grid=grid, n_splits=20, seed=seed)
            res = select_threshold(p, cfg)
            est = hard_threshold(sample_covariance(p), res.selected)
            off = est.entries - np.diag(np.diag(est.entries))
            floor = 2.0 / np.sqrt(cfg.t1)
            if floor <= res.selected < 1.0 and not np.any(off):
                hits += 1
        assert hits >= 45


class TestCvTemplate:
    def test_segment_is_a_third_and_two_thirds(self):
        p = gaussian_panel(31, 540, 4)
        cfg = CvTemplate(n_splits=7, grid_size=11, seed=8).for_panel(p, sample_covariance(p))
        assert cfg.t1 == 120
        assert cfg.t2 == 240
        assert cfg.n_splits == 7
        assert len(cfg.grid) == 11

    def test_segment_leaves_room_for_offsets(self):
        p = gaussian_panel(33, 300, 4)
        cfg = CvTemplate().for_panel(p, sample_covariance(p))
        assert cfg.t1 + cfg.t2 < 300  # several admissible offsets exist

    def test_short_panel_still_valid(self):
        p = gaussian_panel(32, 8, 3)
        cfg = CvTemplate().for_panel(p, sample_covariance(p))
        assert cfg.t1 >= 2 and cfg.t2 >= 2
        assert cfg.t1 + cfg.t2 <= 8


class TestJson:
    def test_round_trip_keys_and_values(self):
        p = gaussian_panel(41, 90, 3)
        cfg = CvTemplate(n_splits=4, grid_size=6, seed=7).for_panel(p, sample_covariance(p))
        res = select_threshold(p, cfg)
        obj = cv_result_to_json_obj(res)
        assert set(obj) == {"grid", "losses", "selected", "seed", "t1", "t2", "n_splits"}
        assert obj["selected"] == res.selected
        assert obj["seed"] == 7
        assert obj["n_splits"] == 4
