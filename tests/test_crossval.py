import tracemalloc
import warnings

import numpy as np
import pytest

from covclust.crossval import (
    CvConfig,
    cv_result_to_json_obj,
    default_grid,
    draw_split,
    select_threshold,
    _grid_losses,
    _loss_curve,
    _window_estimator,
)
from covclust import crossval
from covclust.errors import DataError, DegenerateColumnError
from covclust.matrices import SymMatrix, hard_threshold
from covclust.panel import TimeSeriesPanel, sample_covariance, spearman_matrix


def gaussian_panel(seed, t, j, sigma=None):
    rng = np.random.default_rng(seed)
    if sigma is None:
        x = rng.normal(size=(t, j))
    else:
        x = rng.normal(size=(t, j)) @ np.linalg.cholesky(sigma).T
    return TimeSeriesPanel(x, tuple(f"x{i + 1}" for i in range(j)))


def splits_of(t, cfg):
    return [draw_split(t, cfg, i) for i in range(cfg.n_splits)]


def loss_curve(p, grid, splits):
    """Mean losses of the ascending ``grid`` over hand-picked covariance ``splits``."""
    return _loss_curve(_window_estimator(p, "covariance"), grid, splits, p.n_series)[1]


def direct_mean_loss(p, s, splits):
    """Mean over ``splits`` of ``||hard_threshold(e1, s) - e2||_F^2``, each window estimated anew."""
    direct = []
    for r1, r2 in splits:
        e1 = sample_covariance(TimeSeriesPanel(p.values[r1[0]:r1[1]], p.labels))
        e2 = sample_covariance(TimeSeriesPanel(p.values[r2[0]:r2[1]], p.labels))
        d = hard_threshold(e1, s).entries - e2.entries
        direct.append(float(np.sum(d * d)))
    return float(np.mean(direct))


class TestCvConfig:
    def test_rejects_small_segments(self):
        with pytest.raises(ValueError):
            CvConfig(t1=1, t2=10)
        with pytest.raises(ValueError):
            CvConfig(t1=10, t2=1)

    def test_rejects_nonpositive_splits(self):
        with pytest.raises(ValueError):
            CvConfig(t1=5, t2=5, n_splits=0)

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_nonpositive_grid_size(self, size):
        with pytest.raises(ValueError, match="grid_size"):
            CvConfig(grid_size=size)

    @pytest.mark.parametrize(
        "field, value",
        [("n_splits", 2.5), ("n_splits", True), ("grid_size", 10.0), ("grid_size", "10"),
         ("seed", 1.5), ("seed", False), ("t1", 5.5), ("t2", np.float64(6.0)), ("t1", True)],
    )
    def test_rejects_non_integer_counts_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            CvConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = CvConfig(n_splits=np.int32(3), grid_size=np.int64(5), seed=np.int64(-2),
                       t1=np.int16(4), t2=np.uint8(4))
        assert splits_of(20, cfg) == splits_of(20, CvConfig(n_splits=3, seed=-2, t1=4, t2=4))
        for name in ("n_splits", "grid_size", "seed", "t1", "t2"):
            assert type(getattr(cfg, name)) is int, name

    def test_segment_is_a_third_and_two_thirds(self):
        p = gaussian_panel(31, 540, 4)
        res = select_threshold(p, CvConfig(n_splits=7, grid_size=11, seed=8))
        assert res.t1 == 120
        assert res.t2 == 240
        assert res.n_splits == 7
        assert len(res.grid) == 11

    def test_segment_leaves_room_for_offsets(self):
        t1, t2 = CvConfig().segments(300)
        assert t1 + t2 < 300  # several admissible offsets exist

    def test_short_panel_still_valid(self):
        for t in (4, 5, 8, 9, 10):
            t1, t2 = CvConfig().segments(t)
            assert t1 >= 2 and t2 >= 2
            assert t1 + t2 <= t


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
        cfg = CvConfig(t1=120, t2=240, seed=4)
        for i in range(50):
            (a0, a1), (b0, b1) = draw_split(540, cfg, i)
            assert a1 - a0 == 120
            assert b1 - b0 == 240
            assert b0 == a1  # comparison rows follow immediately
            assert 0 <= a0 and b1 <= 540

    def test_offset_varies_and_covers_range(self):
        cfg = CvConfig(t1=10, t2=10, seed=0)
        offsets = {draw_split(25, cfg, i)[0][0] for i in range(300)}
        assert offsets == {0, 1, 2, 3, 4, 5}  # uniform over {0,...,t-t1-t2}

    def test_redrawable_independently(self):
        cfg = CvConfig(t1=10, t2=10, seed=9)
        again = draw_split(100, cfg, 7)
        assert draw_split(100, cfg, 7) == again

    def test_seed_changes_splits(self):
        a = CvConfig(t1=10, t2=10, seed=1)
        b = CvConfig(t1=10, t2=10, seed=2)
        draws_a = [draw_split(200, a, i) for i in range(20)]
        draws_b = [draw_split(200, b, i) for i in range(20)]
        assert draws_a != draws_b

    def test_rejects_oversized_request(self):
        cfg = CvConfig(t1=30, t2=30)
        with pytest.raises(ValueError, match="exceeds"):
            draw_split(59, cfg, 0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: draw_split(100.5, CvConfig(), 0), "t"),
        (lambda: draw_split(True, CvConfig(), 0), "t"),
        (lambda: draw_split(100, CvConfig(), 1.5), "split_index"),
        (lambda: draw_split(100, CvConfig(), "0"), "split_index"),
        (lambda: default_grid(sample_covariance(gaussian_panel(2, 20, 3)), True), "size"),
        (lambda: default_grid(sample_covariance(gaussian_panel(2, 20, 3)), 2.5), "size"),
    ],
    ids=["t_float", "t_bool", "split_float", "split_str", "size_bool", "size_float"],
)
def test_cv_helpers_take_integers_only(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_numpy_integer_arguments_draw_the_same_splits():
    cfg = CvConfig(seed=3)
    assert draw_split(np.int64(100), cfg, np.int32(4)) == draw_split(100, cfg, 4)
    assert all(type(v) is int for r in draw_split(np.int64(100), cfg, 4) for v in r)


class TestEmpiricalLoss:
    def test_matches_direct_recomputation(self):
        p = gaussian_panel(11, 60, 4)
        splits = [((0, 20), (20, 60)), ((5, 25), (25, 60))]
        (got,) = loss_curve(p, (0.15,), splits)
        assert got == pytest.approx(direct_mean_loss(p, 0.15, splits), rel=1e-14)

    def test_thresholding_beats_no_thresholding_under_independence(self):
        # Columns are independent, so zeroing small spurious cross terms
        # should win for most seeds.
        wins = 0
        for seed in range(20):
            p = gaussian_panel(100 + seed, 600, 10)
            splits = [draw_split(600, CvConfig(t1=200, t2=400, seed=seed), i) for i in range(20)]
            unthresholded, thresholded = loss_curve(p, (0.0, 0.5), splits)
            if thresholded < unthresholded:
                wins += 1
        assert wins >= 18


class TestSelectThreshold:
    def test_losses_are_means_of_common_splits(self):
        p = gaussian_panel(21, 90, 4)
        cfg = CvConfig(t1=30, t2=60, grid_size=3, n_splits=8, seed=3)
        res = select_threshold(p, cfg)
        assert res.per_split_losses.shape == (8, 3)
        np.testing.assert_allclose(res.losses, res.per_split_losses.mean(axis=0), rtol=1e-15)
        splits = [draw_split(90, cfg, i) for i in range(8)]
        for gi, s in enumerate(res.grid):
            assert res.losses[gi] == pytest.approx(direct_mean_loss(p, s, splits), rel=1e-14)

    def test_ties_resolve_to_larger_threshold(self):
        # All entries of every segment estimate sit far below the two top
        # grid points, so those thresholds zero everything and tie exactly.
        p = gaussian_panel(22, 80, 3)
        scale = 1e-6
        tiny = TimeSeriesPanel(p.values * scale, p.labels)
        cfg = CvConfig(t1=20, t2=40, n_splits=4, seed=0)
        _, losses, selected = _loss_curve(
            _window_estimator(tiny, "covariance"), (5.0, 9.0), splits_of(80, cfg), tiny.n_series
        )
        assert losses[0] == losses[1]
        assert selected == 9.0

    def test_deterministic_across_runs(self):
        p = gaussian_panel(23, 120, 5)
        cfg = CvConfig(t1=40, t2=80, grid_size=9, n_splits=10, seed=5)
        a = select_threshold(p, cfg)
        b = select_threshold(p, cfg)
        assert a.selected == b.selected
        assert a.losses == b.losses
        np.testing.assert_array_equal(a.per_split_losses, b.per_split_losses)

    def test_selected_is_last_argmin(self):
        p = gaussian_panel(24, 100, 4)
        res = select_threshold(p, CvConfig(n_splits=12, grid_size=20, seed=1))
        losses = np.array(res.losses)
        assert res.selected == res.grid[np.flatnonzero(losses == losses.min())[-1]]

    def test_degenerate_column_reports_split(self):
        vals = np.column_stack([np.ones(40), np.arange(40.0)])
        p = TimeSeriesPanel(vals, ("const", "trend"))
        cfg = CvConfig(t1=10, t2=20, n_splits=2, seed=0)
        with pytest.raises(DegenerateColumnError) as exc:
            _loss_curve(_window_estimator(p, "spearman"), (0.0,), splits_of(40, cfg), p.n_series)
        assert "split" in str(exc.value)
        assert "const" in exc.value.labels

    @pytest.mark.parametrize(
        "kind, estimator", [("covariance", sample_covariance), ("spearman", spearman_matrix)]
    )
    def test_per_split_losses_match_independent_estimates_bitwise(self, kind, estimator):
        p = gaussian_panel(26, 150, 7)
        cfg = CvConfig(t1=33, t2=66, grid_size=13, n_splits=9, seed=4)
        res = select_threshold(p, cfg, kind)
        for v in range(cfg.n_splits):
            r1, r2 = draw_split(150, cfg, v)
            e1 = estimator(TimeSeriesPanel(p.values[r1[0]:r1[1]], p.labels)).entries
            e2 = estimator(TimeSeriesPanel(p.values[r2[0]:r2[1]], p.labels)).entries
            want = _grid_losses(e1, e2, res.grid)
            np.testing.assert_array_equal(res.per_split_losses[v], want)

    def test_tied_spearman_losses_match_from_scratch_segments_bitwise(self):
        # Few distinct levels tie most of every segment; each segment is
        # ranked from the panel's codes, the reference from its own values.
        rng = np.random.default_rng(28)
        vals = rng.integers(0, 4, size=(120, 6)).astype(float)
        vals[:, 2] = np.tile([0.0, 1.0], 60)  # two levels, half tied each
        p = TimeSeriesPanel(vals, tuple(f"x{i + 1}" for i in range(6)))
        cfg = CvConfig(t1=20, t2=40, grid_size=11, n_splits=15, seed=6)
        res = select_threshold(p, cfg, "spearman")
        for v in range(cfg.n_splits):
            r1, r2 = draw_split(120, cfg, v)
            e1 = spearman_matrix(TimeSeriesPanel(vals[r1[0]:r1[1]], p.labels)).entries
            e2 = spearman_matrix(TimeSeriesPanel(vals[r2[0]:r2[1]], p.labels)).entries
            want = _grid_losses(e1, e2, res.grid)
            np.testing.assert_array_equal(res.per_split_losses[v], want)

    def test_column_constant_in_one_segment_names_split_and_rows(self):
        # "flat2" and "flat" are constant on rows 17..29 only, so the
        # full-sample estimate succeeds; split 3's first segment, rows
        # 19..28, is the first to fall inside that stretch.
        rng = np.random.default_rng(30)
        vals = rng.integers(0, 5, size=(90, 4)).astype(float)
        vals[17:30, 1] = 2.0
        vals[17:30, 3] = -1.0
        p = TimeSeriesPanel(vals, ("a", "flat2", "b", "flat"))
        cfg = CvConfig(t1=10, t2=20, grid_size=5, n_splits=8, seed=3)
        splits = splits_of(90, cfg)
        inside = [i for i, pair in enumerate(splits) if any(17 <= a and b <= 30 for a, b in pair)]
        assert inside[0] == 3
        with pytest.raises(DegenerateColumnError) as exc:
            select_threshold(p, cfg, "spearman")
        r1, r2 = splits[3]
        assert exc.value.labels == ("flat2", "flat")
        assert exc.value.context == f"split 3, rows {r1}/{r2}"
        assert str(exc.value) == (
            "degenerate column(s): 'flat2', 'flat' (split 3, rows (19, 29)/(29, 49))"
        )

    @pytest.mark.parametrize("kind", ["covariance", "spearman"])
    def test_memory_does_not_grow_with_splits(self, kind):
        # 2 * 40 split estimates of 150 x 150 would hold 14 MB at once; a
        # streamed loop keeps a few matrices alive at a time.
        p = gaussian_panel(27, 120, 150)
        cfg = CvConfig(t1=30, t2=60, grid_size=2, n_splits=40, seed=1)
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
        res = select_threshold(p, CvConfig(n_splits=5, grid_size=10, seed=2), "spearman")
        assert 0.0 <= res.selected <= res.grid[-1]


class TestOverflowingPanel:
    """A 20×3 panel with ±1e308 in column ``b``: its covariance products overflow."""

    def panel(self):
        values = np.random.default_rng(17).normal(size=(20, 3))
        values[[4, 11], 1] = 1e308, -1e308
        return TimeSeriesPanel(values, ("a", "b", "c"))

    def test_select_threshold_is_a_data_error_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid or loss was computed")

        monkeypatch.setattr(crossval, "default_grid", no_grid)
        monkeypatch.setattr(crossval, "_grid_losses", no_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"entry \('a', 'b'\) is not finite"):
                select_threshold(self.panel(), CvConfig(n_splits=10, grid_size=5), "covariance")

    def test_empirical_loss_is_a_data_error(self):
        # the first segment holds both extremes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"entry \('a', 'b'\) is not finite"):
                loss_curve(self.panel(), (0.1,), [((0, 12), (12, 20))])

    def test_window_error_names_its_split(self):
        # the window holds only the 1e308, so its first bad entry is ('b', 'b')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                loss_curve(self.panel(), (0.1,), [((2, 8), (8, 20))])
        assert str(err.value) == (
            "sample covariance entry ('b', 'b') is not finite; standardize the panel first "
            "(split 0, rows (2, 8)/(8, 20))"
        )
        assert (err.value.row, err.value.column) == (None, None)


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
            cfg = CvConfig(t1=133, t2=266, n_splits=20, seed=seed)
            _, _, selected = _loss_curve(
                _window_estimator(p, "covariance"), grid, splits_of(t, cfg), p.n_series
            )
            est = hard_threshold(sample_covariance(p), selected)
            off = est.entries - np.diag(np.diag(est.entries))
            floor = 2.0 / np.sqrt(cfg.t1)
            if floor <= selected < 1.0 and not np.any(off):
                hits += 1
        assert hits >= 45


class TestJson:
    def test_round_trip_keys_and_values(self):
        p = gaussian_panel(41, 90, 3)
        res = select_threshold(p, CvConfig(n_splits=4, grid_size=6, seed=7))
        obj = cv_result_to_json_obj(res)
        assert set(obj) == {"grid", "losses", "selected", "seed", "t1", "t2", "n_splits"}
        assert obj["selected"] == res.selected
        assert obj["seed"] == 7
        assert obj["n_splits"] == 4
