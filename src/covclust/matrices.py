"""Labeled symmetric matrices: thresholding, spectral queries, sparsity diagnostics.

The central primitive is entrywise hard thresholding, ``m_ij * 1(|m_ij| >= s)``,
applied to *every* entry including the diagonal.  All spectral quantities are
defined through the symmetric eigendecomposition, so operator norm here always
means the largest absolute eigenvalue.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymMatrix",
    "UniformityParams",
    "hard_threshold",
    "operator_norm",
    "frobenius_norm",
    "min_eigenvalue",
    "uniformity_diagnostics",
    "sym_to_csv",
    "sym_from_csv",
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
    memory and cannot be mutated in place.
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
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def submatrix(self, indices) -> "SymMatrix":
        """Restriction to ``indices`` (order preserved), labels carried along."""
        idx = list(indices)
        sub = self.entries[np.ix_(idx, idx)]
        return SymMatrix(sub, tuple(self.labels[i] for i in idx))


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
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
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
    s = float(s)
    if not np.isfinite(s) or s < 0:
        raise ValueError(f"threshold must be finite and >= 0, got {s}")
    kept = np.where(np.abs(m.entries) >= s, m.entries, 0.0)
    return SymMatrix(kept, m.labels)


def _eigenvalues(m: SymMatrix) -> np.ndarray:
    # LAPACK symmetric eigensolver; tests cross-check it against an
    # independent Jacobi-rotation implementation.
    return np.linalg.eigvalsh(m.entries)


def operator_norm(m: SymMatrix) -> float:
    """Spectral norm: the largest absolute eigenvalue of ``m``."""
    return float(np.max(np.abs(_eigenvalues(m))))


def frobenius_norm(m: SymMatrix) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(m.entries ** 2)))


def min_eigenvalue(m: SymMatrix) -> float:
    """Smallest (signed) eigenvalue of ``m``."""
    return float(_eigenvalues(m)[0])


def uniformity_diagnostics(m: SymMatrix, q: float) -> tuple[float, float]:
    """Measure where ``m`` sits inside the sparsity class.

    Returns ``(max_diag, max_row_q_norm)`` where the row q-norm is
    ``max_i sum_j |m_ij|**q`` under the convention ``0**0 = 0``, so at
    ``q = 0`` the second component is the largest per-row nonzero count.
    """
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
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


def sym_to_csv(m: SymMatrix, path) -> None:
    """Write ``m`` as CSV: a header row of labels, then the square block."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(m.labels)
        for row in m.entries:
            writer.writerow([repr(float(v)) for v in row])


def sym_from_csv(path) -> SymMatrix:
    """Read a matrix written by :func:`sym_to_csv`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    labels = tuple(rows[0])
    block = rows[1:]
    if len(block) != len(labels):
        raise ValueError(
            f"{path}: {len(labels)} labels but {len(block)} matrix rows"
        )
    try:
        entries = [[float(v) for v in row] for row in block]
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric matrix cell ({exc})") from None
    return SymMatrix(np.array(entries), labels)

