"""CSV ingestion and per-column stationarity transforms.

Raw panels arrive as a header row of labels plus numeric rows, one per
period.  Each column may request one of six transforms; differencing
shortens a column, so all columns are trimmed from the front to the longest
lag before standardization, keeping rows aligned in time.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError, InsufficientDataError, ParseError
from .panel import TimeSeriesPanel, standardize

__all__ = [
    "TRANSFORM_CODES",
    "transform_lag",
    "apply_transform",
    "read_csv_matrix",
    "ingest",
    "write_panel_csv",
    "read_panel_csv",
]

#: recognized transform codes and the rows each one consumes
TRANSFORM_CODES = ("level", "log", "diff1", "diff2", "log_diff1", "log_diff2")

_LAGS = {
    "level": 0,
    "log": 0,
    "diff1": 1,
    "diff2": 2,
    "log_diff1": 1,
    "log_diff2": 2,
}


def transform_lag(code: str) -> int:
    """Number of leading periods the transform consumes."""
    try:
        return _LAGS[code]
    except KeyError:
        raise ValueError(
            f"unknown transform code {code!r}; expected one of {TRANSFORM_CODES}"
        ) from None


def apply_transform(values: np.ndarray, code: str, label: str = "") -> np.ndarray:
    """Apply one transform to one column; length shrinks by :func:`transform_lag`.

    Logarithmic codes require strictly positive input and report the first
    offending row (0-based within the column) on failure.
    """
    lag = transform_lag(code)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("apply_transform expects a 1-D column")
    if code in ("log", "log_diff1", "log_diff2"):
        bad = np.flatnonzero(v <= 0.0)
        if bad.size:
            raise DataError(
                f"log transform of column {label!r} hit a non-positive value "
                f"{v[bad[0]]!r} at row {int(bad[0])}",
                row=int(bad[0]),
                column=label,
            )
        v = np.log(v)
    if code in ("diff1", "log_diff1"):
        v = np.diff(v)
    elif code in ("diff2", "log_diff2"):
        v = np.diff(v, n=2)
    assert len(v) == len(values) - lag
    return v


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a labeled numeric CSV of finite values.

    Blank lines are skipped.  Every failure carries the 1-based line of the
    file as ``row`` (blank lines counted) and, where one cell is at fault,
    its 1-based ``column``: a blank or repeated header label, a row of the
    wrong width or a non-numeric cell is a :class:`ParseError`, and a
    ``nan``, ``inf`` or overflowing cell is a :class:`DataError`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ParseError(f"{path}: file is empty")
    labels = tuple(cell.strip() for cell in rows[0])
    first_seen = {}
    for j, label in enumerate(labels, start=1):
        if not label:
            raise ParseError(
                f"{path}: blank column label in header", row=lines[0], column=j
            )
        if label in first_seen:
            raise ParseError(
                f"{path}: column {j} repeats the label {label!r} of column "
                f"{first_seen[label]}",
                row=lines[0],
                column=j,
            )
        first_seen[label] = j
    width = len(labels)
    body, lines = rows[1:], lines[1:]
    for row, line in zip(body, lines):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {line} has {len(row)} cells, expected {width}", row=line
            )
    try:
        data = np.array(body, dtype=float).reshape(len(body), width)
    except ValueError:
        data = _parse_cells(path, labels, body, lines)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise DataError(
            f"{path}: non-finite cell {body[i][j]!r} at row {lines[i]}, column {j + 1} "
            f"({labels[j]!r})",
            row=lines[i],
            column=j + 1,
        )
    return labels, data


def _parse_cells(path, labels, body, lines) -> np.ndarray:
    """Cell-by-cell ``float()``, to name the first cell the block parse rejected."""
    data = np.empty((len(body), len(labels)))
    for i, (row, line) in enumerate(zip(body, lines)):
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell!r} at row {line}, column {j + 1} "
                    f"({labels[j]!r})",
                    row=line,
                    column=j + 1,
                ) from None
    return data


def ingest(path, transform_map: dict | None = None) -> TimeSeriesPanel:
    """Read, transform, align, and standardize a raw CSV panel.

    ``transform_map`` maps column labels to transform codes; unlisted columns
    stay at ``level``.  Every column is trimmed from the front to the longest
    requested lag so rows stay aligned, then the panel is standardized.
    Fewer than two surviving rows is an error.
    """
    transform_map = dict(transform_map or {})
    labels, data = read_csv_matrix(path)
    unknown = [l for l in transform_map if l not in labels]
    if unknown:
        raise ValueError(f"transform map names absent columns: {unknown}")
    codes = [transform_map.get(l, "level") for l in labels]
    for label, code in zip(labels, codes):
        if code not in TRANSFORM_CODES:
            raise ValueError(
                f"unknown transform code {code!r} for {label!r}; expected one of {TRANSFORM_CODES}"
            )
    max_lag = max(transform_lag(code) for code in codes)
    t_out = data.shape[0] - max_lag
    if t_out < 2:
        raise InsufficientDataError(
            f"{data.shape[0]} rows leave only {t_out} after trimming to lag "
            f"{max_lag}; need at least 2"
        )
    out = np.empty((t_out, len(labels)))
    for j, (label, code) in enumerate(zip(labels, codes)):
        col = apply_transform(data[:, j], code, label)
        out[:, j] = col[len(col) - t_out :]
    return standardize(TimeSeriesPanel(out, labels))


def write_panel_csv(panel: TimeSeriesPanel, path) -> None:
    """Write a panel as a labeled CSV, losslessly (shortest round-trip floats)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(panel.labels)
        for row in panel.values:
            writer.writerow([repr(float(v)) for v in row])


def read_panel_csv(path) -> TimeSeriesPanel:
    """Read a panel written by :func:`write_panel_csv` (no transforms applied)."""
    labels, data = read_csv_matrix(path)
    return TimeSeriesPanel(data, labels)
