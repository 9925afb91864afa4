"""Cross-validation splits shared among pool workers: same bytes, same errors.

The pool itself is :func:`covclust._pool.each_block`; the fit's kernel-moment
pass, its other caller, is tested in ``test_groupfit_moments.py``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from covclust import _pool, crossval
from covclust.crossval import CvConfig, _loss_curve, _window_estimator, select_threshold
from covclust.errors import DegenerateColumnError
from covclust.ingest import ingest
from covclust.panel import TimeSeriesPanel
from test_golden import WIDE_COMMANDS, assert_reports_match_golden, write_wide_panel

J = crossval._CV_MIN_SERIES + 5


def wide_panel(seed, t=80, j=J, tied=False):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(t, 1))
    values = 0.6 * factor + rng.normal(size=(t, j))
    if tied:
        values = np.round(values)  # a handful of levels per column, many ties
    return TimeSeriesPanel(values, tuple(f"x{i}" for i in range(j)))


@pytest.mark.parametrize(
    "kind, tied", [("covariance", False), ("spearman", False), ("spearman", True)],
    ids=["covariance", "spearman", "tied-spearman"],
)
def test_per_split_losses_are_the_same_bytes_at_one_and_two_workers(kind, tied, use_workers):
    p = wide_panel(3, tied=tied)
    cfg = CvConfig(n_splits=24, grid_size=15, seed=4)
    results = []
    for workers in (1, 2):
        use_workers(workers)
        results.append(select_threshold(p, cfg, kind))
    one, two = results
    assert one.per_split_losses.tobytes() == two.per_split_losses.tobytes()
    assert one.losses == two.losses
    assert one.selected == two.selected
    assert one.estimate.entries.tobytes() == two.estimate.entries.tobytes()


def test_every_split_is_scored_once_under_rapid_thread_switches(monkeypatch, use_workers):
    p = wide_panel(8, t=60)
    cfg = CvConfig(n_splits=40, grid_size=7, seed=2)
    use_workers(1)
    want = select_threshold(p, cfg, "spearman").per_split_losses
    grid_losses, scored = crossval._grid_losses, []

    def spy(e1, e2, grid):
        scored.append(1)
        return grid_losses(e1, e2, grid)

    monkeypatch.setattr(crossval, "_grid_losses", spy)
    use_workers(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = select_threshold(p, cfg, "spearman").per_split_losses
    finally:
        sys.setswitchinterval(interval)
    # offsets are drawn with replacement: each distinct split is scored once
    distinct = {crossval.draw_split(p.n_periods, cfg, i) for i in range(cfg.n_splits)}
    assert len(distinct) < cfg.n_splits
    assert len(scored) == len(distinct)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_repeated_splits_share_their_rows_bit_for_bit(workers, use_workers):
    p = wide_panel(9, t=60)
    # repeats of splits 0 and 1, and a split that only starts where another does
    splits = [((0, 10), (10, 30)), ((5, 15), (15, 35)), ((0, 10), (10, 30)),
              ((0, 10), (10, 31)), ((5, 15), (15, 35)), ((0, 10), (10, 30))]
    estimate = _window_estimator(p, "spearman")
    grid = tuple(np.linspace(0.0, 0.9, 4))
    use_workers(workers)
    got, _, _ = _loss_curve(estimate, grid, splits, p.n_series)
    for i, j in ((0, 2), (0, 5), (1, 4)):
        assert got[i].tobytes() == got[j].tobytes()
    assert got[0].tobytes() != got[3].tobytes()
    # every row is the bytes of its split scored on its own
    for i, split in enumerate(splits):
        alone, _, _ = _loss_curve(estimate, grid, [split], p.n_series)
        assert got[i].tobytes() == alone[0].tobytes()


def test_two_workers_name_the_lower_of_two_failing_splits(use_workers):
    values = wide_panel(5, t=120).values.copy()
    values[40:60, 7] = 1.0  # constant in rows 40..59 only
    p = TimeSeriesPanel(values, tuple(f"x{i}" for i in range(J)))
    splits = [((s, s + 10), (s + 10, s + 20)) for s in (0, 80, 90, 40, 0, 80, 90, 45, 80, 90)]
    estimate = _window_estimator(p, "spearman")

    def slow_on_split_3(start, stop):
        # split 3 fails last in time: the other worker meets split 7 first
        if (start, stop) == splits[3][0]:
            time.sleep(0.2)
        return estimate(start, stop)

    for workers in (1, 2):
        use_workers(workers)
        with pytest.raises(DegenerateColumnError) as exc:
            _loss_curve(slow_on_split_3, (0.0, 0.5), splits, p.n_series)
        assert exc.value.labels == ("x7",)
        assert exc.value.context == "split 3, rows (40, 50)/(50, 60)"


def test_pool_raises_the_failure_of_the_lowest_item(use_workers):
    use_workers(2)
    item_2_failed = threading.Event()

    def run(i):
        if i == 1:  # still running when item 2 fails
            item_2_failed.wait(timeout=10)
            raise ValueError("item 1")
        if i == 2:
            item_2_failed.set()
            raise KeyError("item 2")

    with pytest.raises(ValueError, match="item 1"):
        _pool.each_block(5, lambda: run, 2)
    assert item_2_failed.is_set()


@pytest.mark.skipif(not _pool.can_pin_blas(), reason="numpy ships no OpenBLAS thread-count call")
def test_every_pooled_pass_runs_blas_on_one_thread(monkeypatch, use_workers):
    get, set_ = _pool._openblas_thread_calls()
    before = get()
    both_took_one = threading.Barrier(2, timeout=10)
    seen = []

    def note(i):
        seen.append((threading.get_ident(), get()))

    def run(i):
        if i < 2:  # each of the two threads takes one of the first two items
            both_took_one.wait()
        note(i)

    def fail(i):
        raise ValueError(f"item {i}")

    class Unstartable(threading.Thread):
        def start(self):
            seen.append((None, get()))
            raise RuntimeError("can't start new thread")

    use_workers(2)
    try:
        set_(2)
        _pool.each_block(4, lambda: run, 2)
        threads = {thread for thread, _ in seen}
        assert len(threads) == 2 and threading.get_ident() in threads
        _pool.each_block(2, lambda: note, 1)  # no thread starts at one worker
        assert [count for _, count in seen] == [1] * 6
        assert get() == 2
        with pytest.raises(ValueError, match="item 0"):
            _pool.each_block(3, lambda: fail, 2)
        assert get() == 2
        monkeypatch.setattr(_pool.threading, "Thread", Unstartable)
        with pytest.raises(RuntimeError, match="can't start"):
            _pool.each_block(3, lambda: note, 2)
        assert seen[-1] == (None, 1)  # pinned before the first start
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("kind", ["covariance", "spearman"])
def test_pooled_cv_is_the_same_bytes_without_the_blas_pin(kind, tmp_path, request, use_workers):
    panel = ingest(write_wide_panel(tmp_path / "panel.csv"))

    def per_split_losses():
        losses = []
        for workers in (1, 2):
            use_workers(workers)
            losses.append(select_threshold(panel, CvConfig(), kind).per_split_losses.tobytes())
        return losses

    pinned = per_split_losses()
    request.getfixturevalue("hidden_blas_pin")
    assert not _pool.can_pin_blas()
    assert per_split_losses() == pinned
    assert pinned[0] == pinned[1]


def test_no_thread_starts_below_the_gate(monkeypatch, use_workers):
    started = []
    thread = threading.Thread

    class Spy(thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_pool.threading, "Thread", Spy)
    use_workers(8)
    cfg = CvConfig(n_splits=6, grid_size=5, seed=1)
    for kind in ("covariance", "spearman"):
        select_threshold(wide_panel(6, j=crossval._CV_MIN_SERIES - 1), cfg, kind)
    assert started == []
    # at the gate, one thread joins the calling one
    select_threshold(wide_panel(6, j=crossval._CV_MIN_SERIES), cfg, "spearman")
    assert len(started) == crossval._CV_MAX_WORKERS - 1


def test_wide_cluster_screen_is_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the CV pass pins BLAS to one thread whatever OPENBLAS_NUM_THREADS says;
    # the Spearman screen and a covariance threshold on the pooled CV path match
    # the committed reports (tests/test_golden.py says which numpy they hold for)
    panel = write_wide_panel(tmp_path / "panel.csv")
    for threads in ("1", "2"):
        for name, (argv, reports) in WIDE_COMMANDS.items():
            out = tmp_path / f"threads{threads}" / name
            assert_reports_match_golden(
                name, (*argv, "--input", str(panel)), out, {"OPENBLAS_NUM_THREADS": threads}, reports
            )
