"""CSV ingestion and per-column stationarity transforms.

Raw panels arrive as a header row of labels plus numeric rows, one per
period.  Each column may request one of six transforms; differencing
shortens a column, so all columns are trimmed from the front to the longest
lag before standardization, keeping rows aligned in time.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, InsufficientDataError, ParseError
from .matrices import _write_labeled_csv
from .panel import TimeSeriesPanel, standardize

__all__ = [
    "TRANSFORM_CODES",
    "apply_transform",
    "read_csv_matrix",
    "ingest",
    "write_panel_csv",
]

#: transform code -> (take the log, differencing order); the order is the lag
_TRANSFORMS = {
    "level": (False, 0),
    "log": (True, 0),
    "diff1": (False, 1),
    "diff2": (False, 2),
    "log_diff1": (True, 1),
    "log_diff2": (True, 2),
}

#: recognized transform codes, in the order error messages list them
TRANSFORM_CODES = tuple(_TRANSFORMS)


def _transform(code: str, label: str = "") -> tuple[bool, int]:
    try:
        return _TRANSFORMS[code]
    except KeyError:
        column = f" for {label!r}" if label else ""
        raise ValueError(
            f"unknown transform code {code!r}{column}; expected one of {TRANSFORM_CODES}"
        ) from None


def apply_transform(values: np.ndarray, code: str, label: str = "") -> np.ndarray:
    """Apply one transform to one column; length shrinks by the transform's lag.

    A non-finite input cell, a non-positive input under a logarithmic code,
    or a difference that overflows, is a :class:`DataError` whose ``row`` is
    the offending cell's 0-based row within the column (for a difference,
    the cell that ends it); :func:`ingest` turns that into the cell's file
    coordinates.
    """
    take_log, lag = _transform(code)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("apply_transform expects a 1-D column")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise _cell_error(code, label, "hit the non-finite cell", x, int(bad[0]))
    v = x
    if take_log:
        bad = np.flatnonzero(x <= 0.0)
        if bad.size:
            raise _cell_error(code, label, "hit the non-positive cell", x, int(bad[0]))
        v = np.log(x)
    if lag:
        with np.errstate(over="ignore"):
            v = np.diff(v, n=lag)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise _cell_error(code, label, "overflows at the cell", x, int(bad[0]) + lag)
    assert len(v) == len(x) - lag
    return v


def _cell_error(code, label, what, x, row) -> DataError:
    return DataError(
        f"{code} transform of column {label!r} {what} {float(x[row])!r}", row=row, column=label
    )


@contextmanager
def _open_utf8(path, newline=None):
    """``open(path)`` for reading UTF-8 text, a leading byte-order mark skipped.

    A byte that is not UTF-8 is a :class:`ParseError` naming the file and,
    as ``row``, the 1-based line the first such byte is on.  The file is
    read again as bytes to find it, since a decoding error gives the
    byte's offset in a read-ahead chunk, not in the file.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # lines end at \n, \r or \r\n, as for the text reader; the
            # stand-in byte counts the line the bad byte starts
            line = len((raw[: exc.start] + b"x").splitlines())
            raise ParseError(
                f"{path}: line {line} is not UTF-8: byte {raw[exc.start]:#04x}, {exc.reason}",
                row=line,
            ) from None
        raise ParseError(f"{path}: file is not UTF-8") from None  # it changed since


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """Read a labeled numeric CSV of finite values.

    Returns the labels, the ``T x J`` data block and the 1-based file line
    of each data row.  Blank lines are skipped.  A failure carries the
    1-based line of the file as ``row`` (blank lines counted) and, where one
    cell is at fault, its 1-based ``column``.  A byte that is not UTF-8 is
    reported first, then a blank or repeated header label, then the first
    faulty row: its wrong width, else its first cell that is non-numeric
    (all these are a :class:`ParseError`) or ``nan``, ``inf`` or
    overflowing (a :class:`DataError`).
    """
    with _open_utf8(path, newline="") as fh:
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
    body, lines = rows[1:], lines[1:]
    try:
        data = np.array(body, dtype=float).reshape(len(body), len(labels))
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        data = _parse_rows(path, labels, body, lines)
    return labels, data, tuple(lines)


def _parse_rows(path, labels, body, lines) -> np.ndarray:
    """Cell-by-cell ``float()`` in file order, raising at the first faulty row."""
    data = np.empty((len(body), len(labels)))
    for i, (row, line) in enumerate(zip(body, lines)):
        if len(row) != len(labels):
            raise ParseError(
                f"{path}: row {line} has {len(row)} cells, expected {len(labels)}", row=line
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                error, what = ParseError, "non-numeric"
            else:
                if math.isfinite(data[i, j]):
                    continue
                error, what = DataError, "non-finite"
            raise error(
                f"{path}: {what} cell {cell!r} at row {line}, column {j + 1} ({labels[j]!r})",
                row=line,
                column=j + 1,
            )
    return data


def ingest(path, transform_map: dict | None = None) -> TimeSeriesPanel:
    """Read, transform, align, and standardize a raw CSV panel.

    ``transform_map`` maps column labels to transform codes; unlisted columns
    stay at ``level``.  Every column is trimmed from the front to the longest
    requested lag so rows stay aligned, then the panel is standardized.
    Fewer than two surviving rows is an error, and a non-positive cell under
    a log transform, or a difference that overflows, is a :class:`DataError`
    at its file line and 1-based column.
    """
    transform_map = dict(transform_map or {})
    labels, data, lines = read_csv_matrix(path)
    unknown = [l for l in transform_map if l not in labels]
    if unknown:
        raise ValueError(f"transform map names absent columns: {unknown}")
    codes = [transform_map.get(l, "level") for l in labels]
    max_lag = max(_transform(code, label)[1] for label, code in zip(labels, codes))
    t_out = data.shape[0] - max_lag
    if t_out < 2:
        raise InsufficientDataError(
            f"{data.shape[0]} rows leave only {t_out} after trimming to lag "
            f"{max_lag}; need at least 2"
        )
    out = np.empty((t_out, len(labels)))
    for j, (label, code) in enumerate(zip(labels, codes)):
        try:
            col = apply_transform(data[:, j], code, label)
        except DataError as exc:
            raise DataError(
                f"{path}: {exc} at row {lines[exc.row]}, column {j + 1}",
                row=lines[exc.row],
                column=j + 1,
            ) from None
        out[:, j] = col[len(col) - t_out :]
    return standardize(TimeSeriesPanel(out, labels))


def write_panel_csv(panel: TimeSeriesPanel, path) -> None:
    """Write a panel as a labeled CSV, losslessly (shortest round-trip floats)."""
    _write_labeled_csv(panel.labels, (row.tolist() for row in panel.values), path)
