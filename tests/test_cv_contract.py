"""``select_threshold`` is the one cross-validation entry point: it checks the
request, makes the full-sample estimate, spans the grid over it and returns
it with the selection, so callers threshold the matrix the grid was built on."""

import numpy as np
import pytest

from covclust.crossval import CvConfig, select_threshold
from covclust.errors import InsufficientDataError
from covclust.ingest import ingest
from covclust.matrices import hard_threshold
from covclust.panel import TimeSeriesPanel, sample_covariance, spearman_matrix
from covclust.pipeline import screen
from test_full_sample_once import PANEL_CSV, estimated_rows  # noqa: F401 (fixture)

KINDS = ("covariance", "spearman")
ESTIMATORS = {"covariance": sample_covariance, "spearman": spearman_matrix}


def random_panel(t, j=3, seed=5):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(rng.normal(size=(t, j)), tuple(f"x{i + 1}" for i in range(j)))


@pytest.mark.parametrize("kind", KINDS)
def test_grid_tops_out_at_the_returned_estimate(kind):
    panel = ingest(PANEL_CSV, {"y": "level"})
    res = select_threshold(panel, CvConfig(n_splits=4, seed=2), kind)
    est = res.estimate.entries
    assert not est.flags.writeable
    np.testing.assert_array_equal(est, ESTIMATORS[kind](panel).entries)
    off = np.abs(est - np.diag(np.diag(est)))
    assert len(res.grid) == 50
    assert res.grid[0] == 0.0
    assert res.grid[-1] == float(off.max())


def test_screen_cuts_the_cv_estimate():
    panel = ingest(PANEL_CSV, {"y": "level"})
    scr = screen(panel, "y", CvConfig(n_splits=10, seed=7))
    order = list(scr.kept) + [scr.response]
    want = hard_threshold(scr.cv.estimate, scr.cv.selected).submatrix(order)
    assert scr.regularized.labels == want.labels
    assert scr.regularized.entries.tobytes() == want.entries.tobytes()
    assert scr.cv.estimate.entries.tobytes() == spearman_matrix(panel).entries.tobytes()


@pytest.mark.parametrize("kind", ["pearson", "Covariance", ""])
def test_unknown_kind_fails_before_any_estimate(kind, estimated_rows):
    panel = random_panel(60)
    with pytest.raises(ValueError, match="unknown matrix_kind"):
        select_threshold(panel, CvConfig(n_splits=2), kind)
    assert estimated_rows == []


@pytest.mark.parametrize(
    "t, cfg, error, message",
    [
        (3, CvConfig(), InsufficientDataError, "T=3"),
        (540, CvConfig(t1=1000), ValueError, "t1=1000 leaves fewer than 2 of T=540"),
        (540, CvConfig(t1=300, t2=300), ValueError, "exceeds panel length T=540"),
    ],
    ids=["short-panel", "t1-too-long", "sum-too-long"],
)
def test_split_sizes_fail_before_any_estimate(t, cfg, error, message, estimated_rows):
    panel = random_panel(t)
    for kind in KINDS:
        with pytest.raises(error, match=message):
            select_threshold(panel, cfg, kind)
    with pytest.raises(error, match=message):
        screen(panel, "x1", cfg)
    assert estimated_rows == []

