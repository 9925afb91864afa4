"""Time-series panels and the covariance/correlation estimators defined on them.

A panel is a ``T x J`` block of observations, one row per period.  Every
estimator is exactly symmetric, bitwise permutation-equivariant under column
reordering, bit-identical from run to run and independent of the BLAS
thread count.  Two rules deliver that:

* Covariance and Pearson Gram entries are sums over rows taken in row
  order (:func:`_pairwise_gram`), so each entry depends only on its two
  columns and never on BLAS blocking.
* Spearman Gram entries are computed in exact arithmetic: centered midranks
  are multiples of 1/2, so one BLAS product returns the same bits in any
  summation order (:func:`_rank_gram`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InsufficientDataError
from .matrices import SymMatrix

__all__ = [
    "TimeSeriesPanel",
    "standardize",
    "sample_covariance",
    "pearson_matrix",
    "spearman_matrix",
]


@dataclass(frozen=True)
class TimeSeriesPanel:
    """An ordered panel of ``T`` periods for ``J`` labeled series.

    Parameters
    ----------
    values : array_like
        ``T x J`` numeric block; every cell must be finite (missing values
        are rejected here, not imputed).
    labels : sequence of str
        Unique column names.
    time_index : sequence, optional
        Strictly increasing per-row stamps.  Purely descriptive; row order is
        authoritative for every estimator.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    time_index: tuple | None = None

    def __post_init__(self):
        # order="C" so downstream reductions see one memory layout no matter
        # how the caller built the block; identical values then give
        # bit-identical estimates.
        arr = np.array(self.values, dtype=float, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {arr.shape}")
        t, j = arr.shape
        if t < 2:
            raise ValueError(f"a panel needs at least 2 rows, got {t}")
        if j < 1:
            raise ValueError("a panel needs at least 1 column")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite value at row {bad[0]}, column {bad[1]}"
            )
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != j:
            raise ValueError(f"{len(labels)} labels for {j} columns")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if self.time_index is not None:
            ti = tuple(self.time_index)
            if len(ti) != t:
                raise ValueError(f"time_index length {len(ti)} != {t} rows")
            if any(b <= a for a, b in zip(ti, ti[1:])):
                raise ValueError("time_index must be strictly increasing")
            object.__setattr__(self, "time_index", ti)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None
        return self.values[:, j]

    def rows(self, start: int, stop: int) -> "TimeSeriesPanel":
        """Consecutive sub-panel ``[start, stop)`` with the time index sliced along."""
        if not 0 <= start < stop <= self.n_periods:
            raise ValueError(
                f"invalid row range [{start}, {stop}) for {self.n_periods} periods"
            )
        ti = self.time_index[start:stop] if self.time_index is not None else None
        return TimeSeriesPanel(self.values[start:stop], self.labels, ti)


def _find_degenerate(arr: np.ndarray, labels) -> list:
    constant = np.all(arr == arr[0], axis=0)
    return [labels[j] for j in np.flatnonzero(constant)]


def standardize(p: TimeSeriesPanel) -> TimeSeriesPanel:
    """Center each column and scale it to unit sample standard deviation.

    The scale uses the ``T - 1`` divisor.  A constant column has no scale and
    raises :class:`DegenerateColumnError` naming every offending label.
    """
    bad = _find_degenerate(p.values, p.labels)
    if bad:
        raise DegenerateColumnError(bad, context="standardize")
    mean = p.values.mean(axis=0)
    sd = p.values.std(axis=0, ddof=1)
    return TimeSeriesPanel((p.values - mean) / sd, p.labels, p.time_index)


# Cells in one block of row outer products in _pairwise_gram (512 KB).
_GRAM_BLOCK_CELLS = 1 << 16


def _pairwise_gram(z: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric matrix of ``sum_t z[t, a] * z[t, b] * scale``, summed in row order.

    Entry ``(a, b)`` is the left-to-right sum of ``z[t, a] * z[t, b]`` over
    ``t = 0, 1, ...`` whatever the other columns hold.  Since
    ``x * y == y * x`` in floating point, the result is exactly symmetric and
    bitwise permutation-equivariant.  A BLAS ``z.T @ z`` is neither: its
    blocking, and so its summation order, depends on the column positions.

    Narrow panels form the outer products of a block of rows in one call and
    add them with a reduction along the row axis, the running total in front;
    numpy reduces an outer axis one slice at a time, so the order is the
    same.  When fewer than four rows fit in a block, each row adds its outer
    product in turn.  Both give the same bits.
    """
    t, j = z.shape
    rows = min(t, _GRAM_BLOCK_CELLS // (j * j))
    out = np.zeros((j, j))
    # A lone column's reduction would be numpy's pairwise sum, not row order.
    if rows < 4 or j == 1:
        term = np.empty((j, j))
        for row in z:
            np.multiply(row[:, None], row[None, :], out=term)
            out += term
    else:
        buf = np.empty((rows + 1, j, j))
        for lo in range(0, t, rows):
            block = z[lo:lo + rows]
            n = len(block)
            buf[0] = out
            np.multiply(block[:, :, None], block[:, None, :], out=buf[1:n + 1])
            np.add.reduce(buf[:n + 1], axis=0, out=out)
    out *= scale
    return out


# Largest T for which the Spearman Gram is exact in float64 (T**3 <= 2**53);
# see _rank_gram.
_EXACT_RANK_GRAM_MAX_T = 208_063


def _midranks(x: np.ndarray) -> np.ndarray:
    """Per-column ranks from 1 to ``T``, ties given the mean of the ranks they span.

    One sort ranks every column.  The columns are copied into the rows of a
    contiguous ``J x T`` block first, so each sort runs along memory rather
    than down a stride of ``J`` cells; the result is returned as a ``T x J``
    view.  In sorted order, a tie group spans positions ``start..end``; each
    member gets ``(start + end) / 2 + 1``, the same value
    ``scipy.stats.rankdata(method="average")`` gives.  Every member of a
    group gets the same rank, so the order the sort leaves ties in does not
    matter: the default sort, about three times faster than a stable one,
    gives the same ranks.  With no ties at all, the ranks are the inverse
    of the sort order plus one, which skips the tie-group scans.
    """
    t = x.shape[0]
    series = np.ascontiguousarray(x.T)
    order = np.argsort(series, axis=1)
    srt = np.take_along_axis(series, order, axis=1)
    new = np.ones(srt.shape, dtype=bool)
    new[:, 1:] = srt[:, 1:] != srt[:, :-1]
    ranks = np.empty(series.shape)
    if new.all():
        np.put_along_axis(ranks, order, np.arange(1.0, t + 1.0)[None, :], axis=1)
        return ranks.T
    pos = np.arange(t)
    start = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    last = np.ones(srt.shape, dtype=bool)
    last[:, :-1] = new[:, 1:]
    end = np.minimum.accumulate(np.where(last, pos, t - 1)[:, ::-1], axis=1)[:, ::-1]
    np.put_along_axis(ranks, order, (start + end) / 2.0 + 1.0, axis=1)
    return ranks.T


def _rank_gram(centered: np.ndarray) -> np.ndarray:
    """``centered.T @ centered`` for centered midranks, exact in float64.

    Midranks and their mean ``(T + 1) / 2`` are multiples of 1/2, so every
    product is a multiple of 1/4.  No partial sum exceeds
    ``T * ((T - 1) / 2) ** 2 < T**3 / 4`` in magnitude, and a multiple of 1/4
    below ``2**53 / 4`` is a float64.  For ``T**3 <= 2**53`` every partial
    sum is therefore exact, so the BLAS product gives the same bits in any
    summation order: the thread count and the column order change nothing,
    and the result equals :func:`_pairwise_gram`.  Longer panels fall back to
    the row-order :func:`_pairwise_gram`.
    """
    if centered.shape[0] > _EXACT_RANK_GRAM_MAX_T:
        return _pairwise_gram(centered, 1.0)
    return centered.T @ centered


def sample_covariance(p: TimeSeriesPanel) -> SymMatrix:
    """Averaged outer products of demeaned rows, normalized by ``T`` (not ``T - 1``).

    Returns
    -------
    SymMatrix
        Positive semidefinite up to roundoff.
    """
    t = p.n_periods
    if t < 2:
        raise InsufficientDataError(f"sample covariance needs T >= 2, got {t}")
    centered = p.values - p.values.mean(axis=0)
    return SymMatrix(_pairwise_gram(centered, 1.0 / t), p.labels)


def _correlation_from_gram(gram: np.ndarray, labels) -> SymMatrix:
    diag = np.diag(gram)
    bad = [labels[k] for k in np.flatnonzero(diag == 0.0)]
    if bad:
        raise DegenerateColumnError(bad, context="correlation")
    denom = np.sqrt(diag)
    # One symmetric divisor (a*b == b*a exactly) rather than two sequential
    # divisions, which would break exact symmetry by a unit in the last place.
    corr = gram / (denom[:, None] * denom[None, :])
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return SymMatrix(corr, tuple(labels))


def pearson_matrix(p: TimeSeriesPanel) -> SymMatrix:
    """Pearson correlation matrix: unit diagonal, entries clipped to ``[-1, 1]``."""
    centered = p.values - p.values.mean(axis=0)
    return _correlation_from_gram(_pairwise_gram(centered, 1.0), p.labels)


def spearman_matrix(p: TimeSeriesPanel) -> SymMatrix:
    """Rank correlation matrix: Pearson correlation of per-column midranks.

    Ties receive the average of the ranks they span, so the result is
    invariant (bit-for-bit) under strictly increasing transforms of any
    column.  A column whose values are all tied carries no rank information
    and raises :class:`DegenerateColumnError`.
    """
    bad = _find_degenerate(p.values, p.labels)
    if bad:
        raise DegenerateColumnError(bad, context="spearman")
    # Midranks of every column sum to T(T+1)/2, ties or not.
    centered = _midranks(p.values) - (p.n_periods + 1) / 2.0
    return _correlation_from_gram(_rank_gram(centered), p.labels)
