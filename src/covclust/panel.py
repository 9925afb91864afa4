"""Time-series panels and the covariance/correlation estimators defined on them.

A panel is a ``T x J`` block of observations, one row per period.  Every
estimator is exactly symmetric, bitwise permutation-equivariant under column
reordering, bit-identical from run to run and independent of the BLAS
thread count.  Two rules deliver that:

* Covariance Gram entries are sums over rows taken in row
  order (:func:`_pairwise_gram`), so each entry depends only on its two
  columns and never on BLAS blocking.  One ``np.einsum`` (numpy's own loop,
  not BLAS) over a C-ordered block adds the rows in order for two or more
  columns; a lone column would be reduced pairwise, so it takes a
  sequential running sum instead.
* Spearman Gram entries are computed in exact arithmetic: centered midranks
  are multiples of 1/2, so one BLAS product returns the same bits in any
  summation order (:func:`_rank_gram`).

Ranking takes one sort per panel and one per window of rows.
:func:`_rank_codes` sorts each column once and gives every value a dense
int32 code: equal values share a code, and codes follow the order of the
values.  A window of rows is ranked by its window of codes alone
(:func:`_sort_window`): one integer sort of the unique keys
``(code << bits) | position`` orders every column, and the order and the
sorted codes are read back out of the keys.  Since the keys are unique, the
ranks do not depend on how a sort breaks ties.

The array kernels return ``J x J`` entries, and the public estimators wrap
them in a :class:`SymMatrix`.  :func:`_covariance` takes a ``T x J`` block
and :func:`_spearman` a ``J x T`` block of codes, each with its labels for
its own data check.  Cross-validation ranks the panel once and feeds them
windows of an already validated panel: row slices of the values or column
slices of the codes, so a window neither copies nor re-validates its cells,
nor sorts its values again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateColumnError
from .matrices import SymMatrix, _check_unique

__all__ = [
    "TimeSeriesPanel",
    "standardize",
    "sample_covariance",
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
    """

    values: np.ndarray
    labels: tuple[str, ...]

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
        _check_unique(labels)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


def standardize(p: TimeSeriesPanel) -> TimeSeriesPanel:
    """Center each column and scale it to unit sample standard deviation.

    The scale uses the ``T - 1`` divisor.  A constant column has no scale and
    raises :class:`DegenerateColumnError` naming every offending label.

    Each column is first multiplied by the power of two that brings its
    largest magnitude into ``[0.5, 1)``, so the squares cannot overflow for
    a finite column of any size.  The product is exact unless it leaves a
    cell subnormal, and the mean and the standard deviation scale with it,
    so an ordinary column standardizes to the same bytes as unscaled.
    """
    constant = np.all(p.values == p.values[0], axis=0)
    if constant.any():
        bad = [p.labels[j] for j in np.flatnonzero(constant)]
        raise DegenerateColumnError(bad, context="standardize")
    x = np.ldexp(p.values, -np.frexp(np.abs(p.values).max(axis=0))[1])
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    return TimeSeriesPanel((x - mean) / sd, p.labels)


def _pairwise_gram(z: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric matrix of ``sum_t z[t, a] * z[t, b] * scale``, summed in row order.

    Entry ``(a, b)`` is the left-to-right sum of ``z[t, a] * z[t, b]`` over
    ``t = 0, 1, ...`` whatever the other columns hold.  Since
    ``x * y == y * x`` in floating point, the result is exactly symmetric and
    bitwise permutation-equivariant.  A BLAS ``z.T @ z`` is neither: its
    blocking, and so its summation order, depends on the column positions.

    On a C-ordered block with two or more columns, ``einsum`` keeps the row
    axis outermost and adds each row's products to the running total in
    turn.  On a Fortran-ordered block it would not, hence the copy to C
    order (a no-op for the row slices cross-validation passes).  With one
    column the row axis is the only axis and ``einsum`` would sum it
    pairwise, so a lone column takes the last entry of a running sum, which
    adds the rows one by one.  ``TestRowOrderGram`` pins this loop order.
    """
    z = np.ascontiguousarray(z)
    if z.shape[1] == 1:
        out = np.add.accumulate(z * z, axis=0)[-1:]
    else:
        out = np.einsum("ti,tj->ij", z, z)
    out *= scale
    return out


# Largest T for which the Spearman Gram is exact in float64 (T**3 <= 2**53);
# see _rank_gram.
_EXACT_RANK_GRAM_MAX_T = 208_063


def _rank_codes(values: np.ndarray) -> np.ndarray:
    """``J x T`` int32 dense codes of a ``T x J`` block, one sort per column.

    Equal values share a code, and codes follow the order of the values:
    ``codes[j, a] < codes[j, b]`` exactly when ``values[a, j] < values[b, j]``.
    So ranking any window of rows by its codes ranks it by its values, and
    the order the sort leaves ties in does not matter.  The columns are
    copied into the rows of a contiguous block first, so each sort runs
    along memory rather than down a stride of ``J`` cells.
    """
    series = np.ascontiguousarray(values.T)
    order = np.argsort(series, axis=1)
    srt = np.take_along_axis(series, order, axis=1)
    dense = np.zeros(srt.shape, dtype=np.int32)
    np.cumsum(srt[:, 1:] != srt[:, :-1], axis=1, out=dense[:, 1:])
    codes = np.empty_like(dense)
    np.put_along_axis(codes, order, dense, axis=1)
    return codes


def _sort_window(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat sort order and sorted codes of a ``J x t`` window of codes.

    One sort of the keys ``(code << bits) | position`` orders every column,
    ``bits = (t - 1).bit_length()`` wide enough for any position.  The keys
    are unique, so the order does not depend on how the sort breaks ties.
    They are int32 when ``T << bits < 2**31``, with ``T`` one more than the
    largest code (at most the length of the panel the codes came from), and
    int64 otherwise.  The returned order indexes the flattened ``J x t``
    block: row ``j``'s entries are offset by ``j * t``.
    """
    n, t = codes.shape
    bits = (t - 1).bit_length()
    bound = int(codes.max()) + 1
    dtype = np.int32 if bound << bits < 2**31 else np.int64
    keys = codes.astype(dtype)
    keys <<= bits
    keys |= np.arange(t, dtype=dtype)
    keys.sort(axis=1)
    order = (keys & ((1 << bits) - 1)) + np.arange(0, n * t, t)[:, None]
    keys >>= bits
    return order, keys


def _midranks(codes: np.ndarray) -> np.ndarray:
    """Per-column ranks from 1 to ``t``, ties given the mean of the ranks they span.

    ``codes`` are the ``J x T`` :func:`_rank_codes` of a ``T x J`` block, or a
    window ``codes[:, a:b]`` of them, which ranks the rows ``a:b``.  In sorted order
    (:func:`_sort_window`), a tie group of ``size`` members starts at position
    ``start``; each member gets ``start + (size + 1) / 2``, the mean of the
    ranks it spans and the value ``scipy.stats.rankdata(method="average")``
    gives.  With no ties at all, the ranks are the inverse of the sort order
    plus one.  Otherwise the tie pass reads every group's flat start and size
    off the flattened sorted codes (each row opens a group, so none crosses
    rows) and repeats each group's exact midrank ``size`` times.  One flat
    scatter fills in every rank of the ``J x t`` block, returned as a ``t x J`` view.
    """
    n, t = codes.shape
    order, srt = _sort_window(codes)
    new = np.ones(srt.shape, dtype=bool)
    new[:, 1:] = srt[:, 1:] != srt[:, :-1]
    ranks = np.empty(n * t)
    if new.all():
        ranks[order] = np.arange(1.0, t + 1.0)
    else:
        first = np.flatnonzero(new)
        size = np.diff(first, append=n * t)
        ranks[order] = np.repeat(first % t + (size + 1) / 2.0, size).reshape(n, t)
    return ranks.reshape(n, t).T


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


def _covariance(values: np.ndarray, labels) -> np.ndarray:
    """Entries of :func:`sample_covariance` for a ``T x J`` block with column ``labels``."""
    entries = _pairwise_gram(values - values.mean(axis=0), 1.0 / values.shape[0])
    if not np.isfinite(entries).all():
        a, b = np.argwhere(~np.isfinite(entries))[0]
        raise DataError(
            f"sample covariance entry ({labels[a]!r}, {labels[b]!r}) is not finite; "
            "standardize the panel first"
        )
    return entries


def _spearman(codes: np.ndarray, labels) -> np.ndarray:
    """Entries of :func:`spearman_matrix` for the block a ``J x t`` window of
    codes stands for (as in :func:`_midranks`), its columns labeled ``labels``."""
    ranks = _midranks(codes)
    # Midranks of every column sum to t(t+1)/2, ties or not.  The centered
    # ranks are exact multiples of 1/2, so a column's Gram diagonal is exactly
    # zero when, and only when, the column is constant in the block.
    ranks -= (codes.shape[1] + 1) / 2.0
    gram = _rank_gram(ranks)
    diag = np.diag(gram)
    bad = [labels[k] for k in np.flatnonzero(diag == 0.0)]
    if bad:
        raise DegenerateColumnError(bad, context="spearman")
    denom = np.sqrt(diag)
    # One symmetric divisor (a*b == b*a exactly) rather than two sequential
    # divisions, which would break exact symmetry by a unit in the last place.
    # The Gram is scratch, so it becomes the correlation in place.
    gram /= denom[:, None] * denom[None, :]
    np.clip(gram, -1.0, 1.0, out=gram)
    np.fill_diagonal(gram, 1.0)
    return gram


def sample_covariance(p: TimeSeriesPanel) -> SymMatrix:
    """Averaged outer products of demeaned rows, normalized by ``T`` (not ``T - 1``).

    A panel whose products overflow (values near the float limit that are
    not :func:`standardize`-d) raises :class:`DataError` naming the labels
    of the first non-finite entry in row-major order.

    Returns
    -------
    SymMatrix
        Positive semidefinite up to roundoff.
    """
    return SymMatrix._frozen(_covariance(p.values, p.labels), p.labels)


def spearman_matrix(p: TimeSeriesPanel) -> SymMatrix:
    """Rank correlation matrix: Pearson correlation of per-column midranks.

    Ties receive the average of the ranks they span, so the result is
    invariant (bit-for-bit) under strictly increasing transforms of any
    column.  A column whose values are all tied carries no rank information
    and raises :class:`DegenerateColumnError`.
    """
    return SymMatrix._frozen(_spearman(_rank_codes(p.values), p.labels), p.labels)
