"""CSV ingestion and per-column stationarity transforms.

Raw panels arrive as a header row of labels plus numeric rows, one per
period.  Each column may request one of six transforms; differencing
shortens a column, so all columns are trimmed from the front to the longest
lag before standardization, keeping rows aligned in time.
"""

from __future__ import annotations

import csv
import math
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


def _read_lines(path) -> list[str]:
    r"""The lines of the UTF-8 file at ``path``, a leading byte-order mark skipped.

    Lines end at ``\n``, ``\r`` or ``\r\n``, as in a text file's universal
    newline mode, and carry no line end; a file that ends with one has no
    empty last line.  The file is read once.  A byte that is not UTF-8 is a
    :class:`ParseError` naming the file and, as ``row``, the 1-based line
    the first such byte is on.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the stand-in byte counts the line the bad byte starts
        line = len((raw[: exc.start] + b"x").splitlines())
        raise ParseError(
            f"{path}: line {line} is not UTF-8: byte {raw[exc.start]:#04x}, {exc.reason}",
            row=line,
        ) from None
    del raw
    # one copy at a time; str.replace returns the same text if nothing is replaced
    text = text.removeprefix("\ufeff")
    text = text.replace("\r\n", "\n")
    text = text.replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """Read a labeled numeric CSV of finite values.

    Returns the labels, the ``T x J`` data block and the 1-based file line
    of each data row (for a quoted record over several lines, its first).
    Blank lines are skipped.  A failure carries the 1-based line of the
    file as ``row`` (blank lines counted) and, where one cell is at fault,
    its 1-based ``column``.  A byte that is not UTF-8 is reported first,
    then a quote left open past ``csv``'s field limit, then a blank or
    repeated header label, then the first faulty row: its wrong width, else
    its first cell that is non-numeric (all these are a :class:`ParseError`)
    or ``nan``, ``inf`` or overflowing (a :class:`DataError`).

    The file is read once (:func:`_read_lines`).  A plain file is parsed in
    C (:func:`_read_plain`); for any other file, and every faulty one,
    ``csv.reader`` walks the same lines and ``float()`` parses its cells.
    """
    lines = _read_lines(path)
    plain = _read_plain(path, lines)
    if plain is not None:
        return plain
    reader = csv.reader(line + "\n" for line in lines)
    rows, starts, end = [], [], 0
    try:
        for row in reader:
            if row:
                rows.append(row)
                starts.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:  # a quote left open past the field size limit
        raise ParseError(f"{path}: record at row {end + 1}: {exc}", row=end + 1) from None
    if not rows:
        raise ParseError(f"{path}: file is empty")
    labels = _header_labels(path, rows[0], starts[0])
    body, starts = rows[1:], starts[1:]
    return labels, _parse_rows(path, labels, body, starts), tuple(starts)


def _read_plain(path, lines: list[str]):
    """:func:`read_csv_matrix` of a file of :func:`_read_lines` ``lines``, or
    ``None`` if the file is not plain or its body not clean.

    Plain: no line has a NUL, the header no quote, and the body is at least
    one line, none of them blank, so the header is line 1 and the rows are
    lines ``2 ... T + 1``.  Clean: ``np.loadtxt`` parses the body into
    finite cells, one row per line and one column per label.  It and
    ``float()`` both strip a cell's whitespace and call
    ``PyOS_string_to_double``; ``float()`` first maps non-ASCII digits to
    ASCII and drops underscores, and ``loadtxt`` refuses a cell with either.
    So a cell it parses is the double ``float()`` gives, and a file with a
    cell it cannot parse is left to the ``csv.reader`` path.
    """
    if len(lines) < 2 or '"' in lines[0] or "" in lines or any("\0" in line for line in lines):
        return None
    labels = _header_labels(path, lines[0].split(","), 1)
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(lines) - 1, len(labels)) or not np.isfinite(data).all():
        return None
    return labels, data, tuple(range(2, len(lines) + 1))


def _header_labels(path, cells, line) -> tuple[str, ...]:
    """The stripped labels of the header ``cells`` on file ``line``; a blank or
    repeated one is a :class:`ParseError` at its column."""
    labels = tuple(cell.strip() for cell in cells)
    first_seen = {}
    for j, label in enumerate(labels, start=1):
        if not label:
            raise ParseError(f"{path}: blank column label in header", row=line, column=j)
        if label in first_seen:
            raise ParseError(
                f"{path}: column {j} repeats the label {label!r} of column "
                f"{first_seen[label]}",
                row=line,
                column=j,
            )
        first_seen[label] = j
    return labels


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
