"""Threshold selection by cross-validation on random consecutive segments.

Each split draws one consecutive stretch of ``t1 + t2`` periods at a uniform
random offset, estimates a matrix on the first ``t1`` rows and another on the
remaining ``t2`` rows, and scores a candidate threshold ``s`` by the squared
Frobenius distance between the thresholded first estimate and the raw second
estimate.  The same splits score every grid point, so the loss curves differ
only through ``s``; the selected threshold minimizes the mean loss, with ties
broken toward the larger (sparser) value.  This is the split-sample scheme of
Bickel & Levina, "Covariance regularization by thresholding", Ann. Statist.
36 (2008).

One sort scores a split on the whole grid.  With the entries ordered by
``|e1|``, the loss at ``s`` is ``sum e2**2`` over the entries below ``s``
plus ``sum (e1 - e2)**2`` over the rest.  The grid points cut the sorted
entries into buckets, each bucket is summed once, and cumulative sums of the
bucket totals give every grid point's loss.  Grid points that keep the same
entries are separated only by empty buckets, which add exact zeros, so they
get the same float and an exact tie still goes to the larger threshold.

Splits are streamed: each pair of segment estimates is scored against the
whole grid and dropped before the next split is estimated, so memory stays
O(J^2) whatever the number of splits.  A segment is a row view of the
panel's already validated block, handed straight to the array estimators of
:mod:`covclust.panel`: a split copies no rows and checks no cells again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateColumnError
from .matrices import SymMatrix
from .panel import TimeSeriesPanel, _covariance, _spearman

__all__ = [
    "MatrixKind",
    "CvConfig",
    "CvTemplate",
    "CvResult",
    "default_grid",
    "draw_split",
    "empirical_loss",
    "select_threshold",
    "cv_result_to_json_obj",
]

MatrixKind = Literal["covariance", "spearman"]

_SEED_MASK = (1 << 63) - 1


def _estimate(values: np.ndarray, labels, matrix_kind: str) -> np.ndarray:
    """Entries of the ``matrix_kind`` estimate of the ``T x J`` block ``values``."""
    if matrix_kind == "covariance":
        return _covariance(values)
    if matrix_kind == "spearman":
        return _spearman(values, labels)
    raise ValueError(f"unknown matrix_kind {matrix_kind!r}")


@dataclass(frozen=True)
class CvConfig:
    """Split sizes, replication count, candidate grid, and split-sampler seed.

    ``t1`` rows feed the estimate that gets thresholded and ``t2`` rows the
    comparison estimate; both must be at least 2 so each segment supports an
    estimator.  The grid must be sorted, nonempty, with a nonnegative first
    point.
    """

    t1: int
    t2: int
    grid: tuple[float, ...]
    n_splits: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.t1 < 2 or self.t2 < 2:
            raise ValueError(
                f"segment sizes must be >= 2, got t1={self.t1}, t2={self.t2}"
            )
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be positive, got {self.n_splits}")
        grid = tuple(float(g) for g in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if grid[0] < 0:
            raise ValueError(f"grid must start at >= 0, got {grid[0]}")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be sorted ascending")
        object.__setattr__(self, "grid", grid)


def default_grid(estimate: SymMatrix, size: int = 50) -> tuple[float, ...]:
    """Equally spaced thresholds from 0 to the largest off-diagonal magnitude of ``estimate``."""
    if size < 1:
        raise ValueError(f"grid size must be positive, got {size}")
    est = estimate.entries
    off = np.abs(est - np.diag(np.diag(est)))
    top = float(off.max())
    if top == 0.0 or size == 1:
        return (0.0,)
    return tuple(float(v) for v in np.linspace(0.0, top, size))


@dataclass(frozen=True)
class CvTemplate:
    """Recipe that turns a panel and its full-sample estimate into a :class:`CvConfig`.

    Each drawn segment covers about two thirds of the panel; its first third
    feeds the thresholded estimate and the remaining two thirds the
    comparison estimate.  Keeping the segment strictly shorter than the panel
    leaves room for genuinely different split offsets — a segment as long as
    the panel would pin every split to offset 0 and silently collapse the
    replication.  ``t1`` and ``t2`` override those segment lengths; an
    unset ``t2`` follows ``t1`` at twice its length, capped by the rows left.
    """

    n_splits: int = 100
    grid_size: int = 50
    seed: int = 0
    t1: int | None = None
    t2: int | None = None

    def for_panel(self, panel: TimeSeriesPanel, estimate: SymMatrix) -> CvConfig:
        t = panel.n_periods
        t1 = self.t1 if self.t1 is not None else max(2, 2 * t // 9)
        t2 = self.t2 if self.t2 is not None else min(2 * t1, t - t1)
        return CvConfig(
            t1=t1,
            t2=t2,
            grid=default_grid(estimate, self.grid_size),
            n_splits=self.n_splits,
            seed=self.seed,
        )


def draw_split(t: int, cfg: CvConfig, split_index: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row ranges ``((o, o + t1), (o + t1, o + t1 + t2))`` for one split.

    The offset ``o`` is uniform on ``{0, ..., t - t1 - t2}`` and depends only
    on ``(cfg.seed, split_index)``, so a split can be re-drawn independently
    of every other split.
    """
    if split_index < 0:
        raise ValueError(f"split_index must be >= 0, got {split_index}")
    need = cfg.t1 + cfg.t2
    if need > t:
        raise ValueError(f"t1 + t2 = {need} exceeds panel length {t}")
    rng = np.random.default_rng([cfg.seed & _SEED_MASK, split_index])
    offset = int(rng.integers(0, t - need + 1))
    return (offset, offset + cfg.t1), (offset + cfg.t1, offset + cfg.t1 + cfg.t2)


def _segment_estimates(panel: TimeSeriesPanel, splits, matrix_kind: str):
    """Yield ``(e1, e2)`` entry arrays one split at a time, from row views."""
    values, labels = panel.values, panel.labels
    for i, (r1, r2) in enumerate(splits):
        try:
            e1 = _estimate(values[r1[0]:r1[1]], labels, matrix_kind)
            e2 = _estimate(values[r2[0]:r2[1]], labels, matrix_kind)
        except DegenerateColumnError as exc:
            raise DegenerateColumnError(
                exc.labels, context=f"split {i}, rows {r1}/{r2}"
            ) from None
        yield e1, e2


def _grid_losses(e1: np.ndarray, e2: np.ndarray, grid) -> np.ndarray:
    """Squared Frobenius loss of every threshold in the ascending ``grid``.

    Entry ``i`` is ``sum((where(|e1| >= grid[i], e1, 0) - e2) ** 2)``, read
    off one sort of ``|e1|``: bucket ``k`` holds the sorted entries in
    ``[grid[k - 1], grid[k])``, grid point ``i`` zeroes buckets ``0..i`` and
    keeps the rest.  Each bucket is one contiguous reduction; the running
    totals over buckets are sequential, so an empty bucket adds an exact
    zero and grid points with the same kept set get the same float.
    """
    mag = np.abs(e1).ravel()
    order = np.argsort(mag)
    cuts = np.searchsorted(mag[order], grid, "left")
    edges = np.concatenate(([0], cuts, [mag.size]))
    full = edges[:-1] < edges[1:]
    starts = edges[:-1][full]
    zeroed = e2.ravel()[order]
    kept = e1.ravel()[order]
    kept -= zeroed
    kept *= kept
    zeroed *= zeroed
    zeroed_sums = np.zeros(len(edges) - 1)
    kept_sums = np.zeros(len(edges) - 1)
    zeroed_sums[full] = np.add.reduceat(zeroed, starts)
    kept_sums[full] = np.add.reduceat(kept, starts)
    return np.cumsum(zeroed_sums)[:-1] + np.cumsum(kept_sums[::-1])[::-1][1:]


def empirical_loss(
    panel: TimeSeriesPanel, s: float, splits, matrix_kind: str = "covariance"
) -> float:
    """Mean squared-Frobenius validation loss of threshold ``s`` over ``splits``.

    ``splits`` holds ``((start, stop), (start, stop))`` row ranges; each
    range must cover at least 2 rows of the panel.
    """
    s = float(s)
    if not np.isfinite(s) or s < 0:
        raise ValueError(f"threshold must be finite and >= 0, got {s}")
    splits = list(splits)
    t = panel.n_periods
    for start, stop in (r for pair in splits for r in pair):
        if start < 0 or stop > t or stop - start < 2:
            raise ValueError(
                f"invalid row range [{start}, {stop}) for {t} periods; "
                "a segment needs at least 2 rows"
            )
    pairs = _segment_estimates(panel, splits, matrix_kind)
    return float(np.mean([_grid_losses(e1, e2, (s,))[0] for e1, e2 in pairs]))


@dataclass(frozen=True)
class CvResult:
    """Loss curve and selection from one cross-validation run.

    ``per_split_losses`` has shape ``(n_splits, len(grid))`` and is kept for
    diagnostics; ``losses`` is its column mean.  ``selected`` attains the
    minimum of ``losses`` and is the largest grid point that does so.
    """

    grid: tuple[float, ...]
    losses: tuple[float, ...]
    selected: float
    per_split_losses: np.ndarray
    t1: int
    t2: int
    n_splits: int
    seed: int


def select_threshold(
    panel: TimeSeriesPanel, cfg: CvConfig, matrix_kind: str = "covariance"
) -> CvResult:
    """Score every grid point on a common set of splits and pick the minimizer.

    Every grid point is scored on the same ``cfg.n_splits`` splits, so the
    comparison between thresholds sees identical sampling noise.  Each split
    is estimated once, scored on the whole grid from one sort of its first
    estimate's magnitudes (bucket sums and their running totals, see the
    module notes) and dropped.  Grid points that keep the same entries of a
    split get the same loss float, so exact ties in the mean loss happen
    wherever the kept sets agree, and they are resolved toward the larger
    threshold.
    """
    t = panel.n_periods
    splits = (draw_split(t, cfg, i) for i in range(cfg.n_splits))
    per_split = np.empty((cfg.n_splits, len(cfg.grid)))
    for v, (e1, e2) in enumerate(_segment_estimates(panel, splits, matrix_kind)):
        per_split[v] = _grid_losses(e1, e2, cfg.grid)
    losses = per_split.mean(axis=0)
    best = np.flatnonzero(losses == losses.min())[-1]
    per_split.setflags(write=False)
    return CvResult(
        grid=cfg.grid,
        losses=tuple(float(v) for v in losses),
        selected=float(cfg.grid[best]),
        per_split_losses=per_split,
        t1=cfg.t1,
        t2=cfg.t2,
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
