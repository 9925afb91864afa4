"""Labeled symmetric matrices: thresholding, sparsity diagnostics, CSV output.

The central primitive is entrywise hard thresholding, ``m_ij * 1(|m_ij| >= s)``,
applied to *every* entry including the diagonal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymMatrix",
    "UniformityParams",
    "hard_threshold",
    "uniformity_diagnostics",
    "sym_to_csv",
]


@dataclass(frozen=True)
class SymMatrix:
    """A square, exactly symmetric matrix with one label per row/column.

    Parameters
    ----------
    entries : array_like
        Square 2-D array with ``entries[i, j] == entries[j, i]`` exactly.
        Asymmetric input is rejected; producers are expected to fill both
        triangles from the same arithmetic rather than rely on a fix-up here.
    labels : sequence of str
        Unique names, one per row/column.

    Notes
    -----
    The stored array is a read-only copy; a ``SymMatrix`` never aliases caller
    memory and cannot be mutated in place.  The library's own estimators and
    transforms build their result through :meth:`_frozen` instead, which
    skips the copy and the checks their construction already guarantees.
    """

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        # order="C" keeps eigenvalue routines deterministic across callers
        # that hand in differently laid-out (but equal) arrays.
        arr = np.array(self.entries, dtype=float, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square 2-D, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("entries are not exactly symmetric")
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != arr.shape[0]:
            raise ValueError(
                f"{len(labels)} labels for a {arr.shape[0]}-dimensional matrix"
            )
        _check_unique(labels)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _frozen(cls, arr: np.ndarray, labels: tuple[str, ...]) -> "SymMatrix":
        """A matrix over ``arr`` itself, made read-only.

        For arrays built by the library's own arithmetic: ``arr`` is a fresh,
        C-ordered float64 square array that nothing else references and that
        is exactly symmetric by construction, and ``labels`` is a tuple of
        unique strings, one per row.  Nothing of that is checked again.
        """
        arr.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "entries", arr)
        object.__setattr__(m, "labels", labels)
        return m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def submatrix(self, indices) -> "SymMatrix":
        """Restriction to ``indices`` (order preserved), labels carried along."""
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx)
        sub = self.entries[np.ix_(idx, idx)]
        return SymMatrix._frozen(sub, _check_unique(labels))


def _check_unique(labels: tuple[str, ...]) -> tuple[str, ...]:
    """``labels`` itself, once no label is known to repeat."""
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    return labels


def _check_q(q):
    """``q`` itself, once it is known to lie in ``[0, 1)``."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    return q


def _check_threshold(s) -> float:
    """``s`` as a float, once it is known to be a finite, nonnegative threshold."""
    s = float(s)
    if not np.isfinite(s) or s < 0:
        raise ValueError(f"threshold must be finite and >= 0, got {s}")
    return s


@dataclass(frozen=True)
class UniformityParams:
    """Sparsity-class parameters: row q-norm budget ``c0`` and diagonal cap ``M``.

    ``q`` is the sparsity exponent in ``[0, 1)``; ``q = 0`` counts nonzero
    entries per row (with the ``0**0 = 0`` convention), larger ``q`` weighs
    small entries more.
    """

    q: float
    c0: float
    M: float

    def __post_init__(self):
        _check_q(self.q)
        if self.c0 <= 0 or self.M <= 0:
            raise ValueError("c0 and M must be positive")


def hard_threshold(m: SymMatrix, s: float) -> SymMatrix:
    """Zero every entry of ``m`` whose magnitude falls below ``s``.

    The diagonal receives no special treatment: a variance smaller than ``s``
    is zeroed like any other entry.  ``s = 0`` returns the matrix unchanged.

    Parameters
    ----------
    m : SymMatrix
        Matrix to regularize.
    s : float
        Threshold level, ``s >= 0``.

    Returns
    -------
    SymMatrix
        Same labels, entries ``m_ij * 1(|m_ij| >= s)``.
    """
    s = _check_threshold(s)
    kept = np.where(np.abs(m.entries) >= s, m.entries, 0.0)
    return SymMatrix._frozen(kept, m.labels)


def uniformity_diagnostics(m: SymMatrix, q: float) -> tuple[float, float]:
    """Measure where ``m`` sits inside the sparsity class.

    Returns ``(max_diag, max_row_q_norm)`` where the row q-norm is
    ``max_i sum_j |m_ij|**q`` under the convention ``0**0 = 0``, so at
    ``q = 0`` the second component is the largest per-row nonzero count.
    """
    q = _check_q(float(q))
    a = np.abs(m.entries)
    with np.errstate(divide="ignore"):
        powered = np.where(a > 0, a ** q, 0.0)
    max_diag = float(np.max(np.diag(m.entries)))
    max_row = float(np.max(powered.sum(axis=1)))
    return max_diag, max_row


# ---------------------------------------------------------------------------
# serialization
#
# Numbers are written with repr(), i.e. the shortest decimal string that
# round-trips the exact float64 value (at most 17 significant digits), so a
# write/read cycle is lossless and diffs are reproducible.
# ---------------------------------------------------------------------------


def _write_labeled_csv(labels, rows, path) -> None:
    """Write a header row of ``labels``, then each row's Python numbers (array rows
    as ``.tolist()``) as ``repr`` cells: floats round-trip, ints get no decimal point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        writer.writerows([repr(v) for v in row] for row in rows)


def sym_to_csv(m: SymMatrix, path) -> None:
    """Write ``m`` as CSV: a header row of labels, then the square block."""
    _write_labeled_csv(m.labels, (row.tolist() for row in m.entries), path)
