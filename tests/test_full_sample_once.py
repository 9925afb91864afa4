"""Each job estimates the full-sample matrix once: the CV grid and the
screen share it."""

import sys
from pathlib import Path

import numpy as np
import pytest

import covclust.panel
from covclust.cli import main
from covclust.crossval import CvConfig, select_threshold
from covclust.ingest import ingest
from covclust.panel import TimeSeriesPanel
from covclust.pipeline import screen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PANEL_CSV = FIXTURES / "fixture_panel.csv"
RUN_CONFIG = FIXTURES / "run_config.txt"


@pytest.fixture
def estimated_rows(monkeypatch):
    """Row counts of every block handed to the array estimators.

    The kernels are replaced wherever a covclust module binds them, so calls
    through the public estimators and through cross-validation both count.
    ``_covariance`` takes a ``T x J`` block and ``_spearman`` a ``J x T``
    block of codes, so the row count is read from axis 0 or axis 1.
    """
    rows = []
    for name, axis in (("_covariance", 0), ("_spearman", 1)):
        original = getattr(covclust.panel, name)

        def spy(block, *args, _original=original, _axis=axis):
            rows.append(block.shape[_axis])
            return _original(block, *args)

        _patch_everywhere(monkeypatch, name, original, spy)
    return rows


@pytest.fixture
def rank_code_calls(monkeypatch):
    """Shapes of the blocks handed to ``_rank_codes``, wherever it is bound."""
    calls = []
    original = covclust.panel._rank_codes

    def spy(values):
        calls.append(values.shape)
        return original(values)

    _patch_everywhere(monkeypatch, "_rank_codes", original, spy)
    return calls


def _patch_everywhere(monkeypatch, name, original, spy):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("covclust") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


@pytest.mark.parametrize(
    "command",
    [
        ("run",),
        ("cluster",),
        ("threshold", "--matrix-kind", "covariance"),
        ("threshold", "--matrix-kind", "spearman"),
    ],
)
def test_one_full_sample_estimate_per_cli_job(command, estimated_rows, tmp_path, capsys):
    t = ingest(PANEL_CSV, {"y": "level"}).n_periods
    argv = [*command, "--config", RUN_CONFIG, "--input", PANEL_CSV,
            "--n-splits", 3, "--out", tmp_path]
    assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    assert estimated_rows.count(t) == 1
    assert len(estimated_rows) == 1 + 2 * 3


def test_unknown_response_fails_before_any_estimate(estimated_rows):
    rng = np.random.default_rng(11)
    panel = TimeSeriesPanel(rng.normal(size=(50, 3)), ("a", "b", "c"))
    with pytest.raises(KeyError):
        screen(panel, "nope")
    assert estimated_rows == []


@pytest.mark.parametrize("kind, ranked", [("covariance", 0), ("spearman", 1)])
def test_panel_ranked_once_per_cv_run(kind, ranked, rank_code_calls):
    panel = ingest(PANEL_CSV, {"y": "level"})
    select_threshold(panel, CvConfig(n_splits=4, seed=2), kind)
    assert rank_code_calls == [panel.values.shape] * ranked


def test_screen_ranks_the_panel_once(rank_code_calls):
    panel = ingest(PANEL_CSV, {"y": "level"})
    screen(panel, "y", CvConfig(n_splits=4, seed=2))
    assert rank_code_calls == [panel.values.shape]
