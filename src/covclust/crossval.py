"""Threshold selection by cross-validation on random consecutive segments.

:func:`select_threshold` is the one entry point.  It estimates the
full-sample matrix once, spans the grid over it and returns it with the
selected threshold, so callers threshold the matrix the grid was built on.

Each split draws one consecutive stretch of ``t1 + t2`` periods at a uniform
random offset, estimates a matrix on the first ``t1`` rows and another on the
remaining ``t2`` rows, and scores a candidate threshold ``s`` by the squared
Frobenius distance between the thresholded first estimate and the raw second
estimate.  The same splits score every grid point, so the loss curves differ
only through ``s``; the selected threshold minimizes the mean loss, with ties
broken toward the larger (sparser) value.  This is the split-sample scheme of
Bickel & Levina, "Covariance regularization by thresholding", Ann. Statist.
36 (2008).

A split is scored on the whole grid without a sort.  The estimates are
exactly symmetric, so only their upper triangle is read: the diagonal
counts once and every other entry twice.  An entry's bucket is the number
of grid points at or below ``|e1|``; the loss at grid point ``i`` is ``sum
e2**2`` over the buckets up to ``i`` plus ``sum (e1 - e2)**2`` over the
rest.  On the evenly spaced grid :func:`default_grid` spans, the bucket is
read off ``|e1| / step`` and corrected by one comparison on each side;
``np.bincount`` sums each bucket in entry order, and cumulative sums of the
bucket totals give every grid point's loss.  Grid points that keep the
same entries are separated only by empty buckets, which add exact zeros,
so they get the same float and an exact tie still goes to the larger
threshold.  Every step is exact elementwise arithmetic or a sum in a fixed
order, so the losses do not depend on the SIMD loops numpy dispatches to.

One window estimator (:func:`_window_estimator`) serves a run: it maps a
row range to the entries of that window, and the full-sample matrix is the
``(0, T)`` window.  A window is a row view of the panel's already validated
block, handed straight to the array estimators of :mod:`covclust.panel`,
which raise their data errors: a split copies no rows and checks no cells
again.  A Spearman run ranks each column of the panel once, and the
full-sample estimate and every segment read windows of those codes.

Splits are streamed: a split's pair of segment estimates is scored against
the whole grid and dropped before its worker estimates another split.  On
a panel of at least ``_CV_MIN_SERIES`` series, :func:`covclust._pool.each_block`
shares the splits among up to ``_CV_MAX_WORKERS`` threads; on a narrower
panel one estimate is too short to pay for a thread, and every split runs
in the calling thread.  So memory holds two workers' split estimates and
scoring temporaries at most, whatever the number of splits.  A split that
repeats an earlier one is not estimated again: each distinct split writes
its own row of the per-split losses, the repeats copy it once every worker
has finished, and then the mean is taken, so the result is the same bytes
at any worker count, and a failure names the lowest split that fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import _pool
from .errors import DataError, DegenerateColumnError, InsufficientDataError, _require_integer
from .matrices import SymMatrix
from .panel import TimeSeriesPanel, _covariance, _rank_codes, _spearman

__all__ = [
    "MatrixKind",
    "CvConfig",
    "CvResult",
    "default_grid",
    "draw_split",
    "select_threshold",
    "cv_result_to_json_obj",
]

MatrixKind = Literal["covariance", "spearman"]

_SEED_MASK = (1 << 63) - 1

# Threads that share a run's splits, at most.  Each holds one split's two
# J×J estimates and its scoring temporaries at a time.
_CV_MAX_WORKERS = 2
# Fewest series for which the splits are shared.  select_threshold, 100
# splits, 2 CPUs, medians of 30 alternating runs, ms at 1 against 2 workers:
# Spearman 12.6/23.3 at J=17 T=540, 23.6/39.9 at J=17 T=1200, and at T=600
# 37.5/44.6 at J=64, 59.2/52.5 at J=96; covariance gained from J=64 (42/30).
_CV_MIN_SERIES = 96


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream of ``(seed, *key)``, from which every draw in covclust is taken.

    ``seed`` must be an integer (``ValueError`` naming it otherwise), and
    only its low 63 bits count, so a negative seed is a valid one.
    """
    return np.random.default_rng([_require_integer("seed", seed) & _SEED_MASK, *key])


def _window_estimator(panel: TimeSeriesPanel, matrix_kind: str):
    """``estimate(start, stop)``: the ``matrix_kind`` entries of rows ``start:stop``.

    A window is a row view of the panel's validated block.  The Spearman
    estimator ranks each column of the panel once, and every window ranks
    its window of those codes; when no column of the panel has ties (its
    largest code is ``T - 1``), no window has any, and the windows skip the
    tie pass.
    """
    values, labels = panel.values, panel.labels
    if matrix_kind == "covariance":
        return lambda start, stop: _covariance(values[start:stop], labels)
    if matrix_kind == "spearman":
        codes = _rank_codes(values)
        tied = bool(np.any(codes.max(axis=1) < len(values) - 1))
        return lambda start, stop: _spearman(codes[:, start:stop], labels, tied)
    raise ValueError(f"unknown matrix_kind {matrix_kind!r}")


@dataclass(frozen=True)
class CvConfig:
    """Replication count, grid size, split-sampler seed and segment lengths.

    ``t1`` rows feed the estimate that gets thresholded and ``t2`` rows the
    comparison estimate; a set length must be at least 2 so each segment
    supports an estimator, and an unset one follows the panel (:meth:`segments`).
    """

    n_splits: int = 100
    grid_size: int = 50
    seed: int = 0
    t1: int | None = None
    t2: int | None = None

    def __post_init__(self):
        for name in ("n_splits", "grid_size", "seed"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be positive, got {self.n_splits}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be positive, got {self.grid_size}")
        for name, size in (("t1", self.t1), ("t2", self.t2)):
            if size is None:
                continue
            size = _require_integer(name, size)
            object.__setattr__(self, name, size)
            if size < 2:
                raise ValueError(f"{name} must be >= 2, got {size}")

    def segments(self, t: int) -> tuple[int, int]:
        """Segment lengths ``(t1, t2)`` on a panel of ``t`` periods.

        Unset, ``t1 = max(2, 2t // 9)`` and ``t2 = min(2 * t1, t - t1)``: a
        segment of about two thirds of the panel leaves room for different
        split offsets, where one as long as the panel would pin every split
        to offset 0.  An unset ``t2`` follows a set ``t1``.
        """
        if t < 4:
            raise InsufficientDataError(f"cross-validation needs T >= 4 periods, got T={t}")
        t1 = self.t1 if self.t1 is not None else max(2, 2 * t // 9)
        t2 = self.t2 if self.t2 is not None else min(2 * t1, t - t1)
        if t2 < 2:
            raise ValueError(f"t1={t1} leaves fewer than 2 of T={t} periods for t2")
        if t1 + t2 > t:
            raise ValueError(f"t1 + t2 = {t1} + {t2} exceeds panel length T={t}")
        return t1, t2


def default_grid(estimate: SymMatrix, size: int) -> tuple[float, ...]:
    """Equally spaced thresholds from 0 to the largest off-diagonal magnitude of ``estimate``.

    The magnitudes are read from the upper triangle the scorer reads
    (:func:`_upper_triangle`), so a run builds its indices once, here.
    """
    size = _require_integer("size", size)
    if size < 1:
        raise ValueError(f"grid size must be positive, got {size}")
    j = estimate.entries.shape[0]
    top = float(np.abs(estimate.entries.ravel()[_upper_triangle(j)[j:]]).max(initial=0.0))
    if top == 0.0 or size == 1:
        return (0.0,)
    return tuple(float(v) for v in np.linspace(0.0, top, size))


def draw_split(t: int, cfg: CvConfig, split_index: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row ranges ``((o, o + t1), (o + t1, o + t1 + t2))`` for one split.

    ``t1`` and ``t2`` are ``cfg.segments(t)``.  The offset ``o`` is uniform
    on ``{0, ..., t - t1 - t2}`` and depends only on ``(cfg.seed,
    split_index)``, so a split can be re-drawn independently of every other
    split.
    """
    t = _require_integer("t", t)
    split_index = _require_integer("split_index", split_index)
    if split_index < 0:
        raise ValueError(f"split_index must be >= 0, got {split_index}")
    t1, t2 = cfg.segments(t)
    offset = int(_stream(cfg.seed, split_index).integers(0, t - t1 - t2 + 1))
    return (offset, offset + t1), (offset + t1, offset + t1 + t2)


@functools.lru_cache(maxsize=1)
def _upper_triangle(j: int) -> np.ndarray:
    """Read-only flat indices of a ``j x j`` matrix's upper triangle: the
    ``j`` diagonal entries first, then the rest row by row."""
    rows, cols = np.triu_indices(j, 1)
    upper = np.concatenate((np.arange(0, j * j, j + 1), rows * j + cols))
    upper.setflags(write=False)
    return upper


def _grid_buckets(mag: np.ndarray, grid) -> np.ndarray:
    """``np.searchsorted(grid, mag, "right")``: the number of points of
    ``grid`` at or below each magnitude in ``mag``.

    ``grid`` is a :func:`default_grid`: one point, or points ``i * step``
    from 0 as ``np.linspace`` spans them.  No search is made:
    ``k = floor(min(mag, top) / step)`` is at most one point off, and one
    comparison on each side corrects it.  Clipping at the top first keeps a
    diagonal far above the grid from overflowing the quotient or the cast.
    """
    if len(grid) == 1:
        return (mag >= grid[0]).astype(np.intp)
    points = np.append(grid, np.inf)
    top = points[-2]
    k = np.minimum(mag, top)
    k /= top / (len(grid) - 1)
    k = k.astype(np.intp)
    k -= points[k] > mag
    k += 1
    k += points[k] <= mag
    return k


def _grid_losses(e1: np.ndarray, e2: np.ndarray, grid) -> np.ndarray:
    """Squared Frobenius loss of every threshold in the ascending ``grid``.

    Entry ``i`` is ``sum((where(|e1| >= grid[i], e1, 0) - e2) ** 2)``.  The
    estimates must be exactly symmetric: only their upper triangle is read,
    its off-diagonal terms doubled (exactly).  Bucket ``b`` of
    :func:`_grid_buckets` holds the entries with ``|e1|`` in ``[grid[b - 1],
    grid[b])``; grid point ``i`` zeroes buckets ``0..i`` and keeps the rest.
    The grid must be a :func:`default_grid`: one point, or evenly spaced
    from 0.  Each bucket is summed in entry order and the running totals
    over buckets are sequential, so an empty bucket adds an exact zero and
    grid points with the same kept set get the same float.
    """
    j = len(e1)
    upper = _upper_triangle(j)
    # the caller holds no reference to the estimates, so each is freed once
    # its triangle is gathered
    kept = e1.ravel()[upper]
    del e1
    zeroed = e2.ravel()[upper]
    del e2
    bucket = _grid_buckets(np.abs(kept), grid)
    kept -= zeroed
    kept *= kept
    zeroed *= zeroed
    kept[j:] *= 2.0
    zeroed[j:] *= 2.0
    n = len(grid) + 1
    zeroed_sums = np.bincount(bucket, zeroed, n)
    kept_sums = np.bincount(bucket, kept, n)
    return np.cumsum(zeroed_sums)[:-1] + np.cumsum(kept_sums[::-1])[::-1][1:]


def _loss_curve(estimate, grid, splits, n_series):
    """Read-only per-split losses of the ascending ``grid``, their column
    means, and the largest grid point that attains the minimum mean.

    ``estimate`` is a :func:`_window_estimator` of a panel of ``n_series``
    series, which sets the worker count.  Each split's pair of estimates is
    scored and dropped before its worker takes another; a degenerate
    column or a non-finite entry names the lowest split that has one, and
    that split's row ranges.

    Offsets are drawn with replacement, so splits repeat (27 of the bundled
    fixture's 100).  Each distinct split is scored once, at its first
    index, and its row is copied to the repeats after the pass: a split's
    losses depend on its row ranges alone, so the rows are the same bytes
    as scoring every split.  A repeat's first index is lower, so the lowest
    failing split is still the one named.
    """
    splits = list(splits)
    per_split = np.empty((len(splits), len(grid)))
    first = {}
    source = np.array([first.setdefault(split, i) for i, split in enumerate(splits)])
    distinct = list(first.values())

    def score(n):
        i = distinct[n]
        r1, r2 = splits[i]
        try:
            per_split[i] = _grid_losses(estimate(*r1), estimate(*r2), grid)
        except DegenerateColumnError as exc:
            raise DegenerateColumnError(
                exc.labels, context=f"split {i}, rows {r1}/{r2}"
            ) from None
        except DataError as exc:
            raise DataError(
                f"{exc} (split {i}, rows {r1}/{r2})", row=exc.row, column=exc.column
            ) from None

    workers = _CV_MAX_WORKERS if n_series >= _CV_MIN_SERIES else 1
    _pool.each_block(len(distinct), lambda: score, workers)
    per_split = per_split[source]
    per_split.setflags(write=False)
    losses = per_split.mean(axis=0)
    best = np.flatnonzero(losses == losses.min())[-1]
    return per_split, tuple(float(v) for v in losses), float(grid[best])


@dataclass(frozen=True)
class CvResult:
    """Full-sample estimate, loss curve and selection from one cross-validation run.

    ``estimate`` is the full-sample matrix the grid was spanned over and the
    one to threshold at ``selected``.  ``per_split_losses`` has shape
    ``(n_splits, len(grid))`` and is kept for diagnostics; ``losses`` is its
    column mean.  ``selected`` attains the minimum of ``losses`` and is the
    largest grid point that does so.
    """

    estimate: SymMatrix
    grid: tuple[float, ...]
    losses: tuple[float, ...]
    selected: float
    per_split_losses: np.ndarray
    t1: int
    t2: int
    n_splits: int
    seed: int


def select_threshold(
    panel: TimeSeriesPanel, cfg: CvConfig = CvConfig(), matrix_kind: str = "covariance"
) -> CvResult:
    """Cross-validate a hard threshold for the panel's ``matrix_kind`` matrix.

    The segment lengths and the kind are checked before any estimate.  One
    window estimator serves the whole run: the full-sample matrix is its
    ``(0, T)`` window, estimated once, :func:`default_grid` spans
    ``cfg.grid_size`` points over it, and every grid point is scored on the
    same ``cfg.n_splits`` splits, so exact ties in the mean loss happen
    wherever the kept sets agree; they go to the larger threshold.
    """
    t = panel.n_periods
    t1, t2 = cfg.segments(t)
    estimate = _window_estimator(panel, matrix_kind)
    full = SymMatrix._frozen(estimate(0, t), panel.labels)
    grid = default_grid(full, cfg.grid_size)
    splits = [draw_split(t, cfg, i) for i in range(cfg.n_splits)]
    per_split, losses, selected = _loss_curve(estimate, grid, splits, panel.n_series)
    return CvResult(
        estimate=full,
        grid=grid,
        losses=losses,
        selected=selected,
        per_split_losses=per_split,
        t1=t1,
        t2=t2,
        n_splits=cfg.n_splits,
        seed=cfg.seed,
    )


def cv_result_to_json_obj(res: CvResult) -> dict:
    """JSON-ready summary (the per-split loss matrix is deliberately omitted)."""
    return {
        "grid": [float(g) for g in res.grid],
        "losses": [float(v) for v in res.losses],
        "selected": float(res.selected),
        "seed": int(res.seed),
        "t1": int(res.t1),
        "t2": int(res.t2),
        "n_splits": int(res.n_splits),
    }
