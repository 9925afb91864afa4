import importlib

import numpy as np
import pytest

from covclust.errors import (
    DataError,
    DegenerateColumnError,
    InsufficientDataError,
    ParseError,
)
from covclust.ingest import (
    TRANSFORM_CODES,
    apply_transform,
    ingest,
    read_csv_matrix,
    write_panel_csv,
)
from covclust.panel import TimeSeriesPanel
from oracles import spreadsheet_transform

# the package's ``ingest`` is the function, so the module is looked up by name
ingest_mod = importlib.import_module("covclust.ingest")


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestTransformLag:
    def test_known_codes(self):
        # each transform shortens a column by its lag
        column = np.arange(1.0, 7.0)
        lags = {code: 6 - len(apply_transform(column, code)) for code in TRANSFORM_CODES}
        assert lags == {"level": 0, "log": 0, "diff1": 1, "log_diff1": 1, "diff2": 2, "log_diff2": 2}

    def test_unknown_code(self):
        want = f"unknown transform code 'boxcox'; expected one of {TRANSFORM_CODES}"
        with pytest.raises(ValueError) as exc:
            apply_transform(np.ones(3), "boxcox")
        assert str(exc.value) == want

    def test_registry_is_complete(self):
        assert set(TRANSFORM_CODES) == {
            "level",
            "log",
            "diff1",
            "diff2",
            "log_diff1",
            "log_diff2",
        }


class TestApplyTransform:
    def test_level_is_identity(self):
        np.testing.assert_array_equal(
            apply_transform(np.array([3.0, 1.0, 4.0]), "level"), [3.0, 1.0, 4.0]
        )

    def test_first_difference(self):
        np.testing.assert_array_equal(
            apply_transform(np.array([1.0, 2.0, 3.0]), "diff1"), [1.0, 1.0]
        )

    def test_second_difference(self):
        np.testing.assert_array_equal(
            apply_transform(np.array([1.0, 2.0, 4.0, 7.0]), "diff2"), [1.0, 1.0]
        )

    def test_log_of_exponentials(self):
        e = np.exp(1.0)
        got = apply_transform(np.array([e, e**2, e**4]), "log_diff2")
        np.testing.assert_allclose(got, [1.0], atol=1e-12)

    def test_log_rejects_nonpositive_with_location(self):
        with pytest.raises(DataError) as exc:
            apply_transform(np.array([1.0, -2.0, 3.0]), "log", label="cpi")
        assert exc.value.row == 1
        assert exc.value.column == "cpi"

    def test_zero_is_also_rejected(self):
        with pytest.raises(DataError):
            apply_transform(np.array([1.0, 0.0]), "log_diff1", label="z")

    @pytest.mark.parametrize("code", ["diff1", "diff2"])
    def test_overflowing_difference_names_the_cell_that_ends_it(self, code):
        with pytest.raises(DataError) as exc:
            apply_transform(np.array([1.0, 2.0, 1e308, -1e308, 3.0]), code, label="s")
        assert exc.value.row == 3
        assert exc.value.column == "s"
        assert f"{code} transform of column 's' overflows" in str(exc.value)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("code", ["level", "log", "diff1"])
    def test_non_finite_cell_is_refused_at_its_row(self, code, cell):
        with pytest.raises(DataError) as exc:
            apply_transform(np.array([3.0, 1.0, cell, np.nan]), code, label="s")
        assert (exc.value.row, exc.value.column) == (2, "s")
        assert str(exc.value) == f"{code} transform of column 's' hit the non-finite cell {cell!r}"


class TestReadCsvMatrix:
    def test_reads_labels_and_data(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        labels, data, lines = read_csv_matrix(path)
        assert labels == ("a", "b")
        assert lines == (2, 3)
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n\n3,4\n\n")
        _, data, lines = read_csv_matrix(path)
        assert data.shape == (2, 2)
        assert lines == (2, 4)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert exc.value.row == 3
        assert exc.value.column == 2
        assert "oops" in str(exc.value)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert exc.value.row == 3

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError):
            read_csv_matrix(path)

    def test_blank_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,,c\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (1, 2)

    def test_rows_are_file_lines_with_blank_lines_counted(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n\n3,x\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (4, 2)
        assert "row 4" in str(exc.value)

    def test_ragged_row_after_blank_lines_reports_file_line(self, tmp_path):
        path = write(tmp_path, "\na,b\n\n1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert exc.value.row == 5

    def test_duplicate_label_names_the_repeat(self, tmp_path):
        path = write(tmp_path, "a,b,a\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (1, 3)
        assert "'a'" in str(exc.value)

    def test_duplicate_label_row_is_the_header_line(self, tmp_path):
        path = write(tmp_path, "\n\na, a\n1,2\n4,5\n")
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (3, 2)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_cell_is_a_data_error_with_location(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,c\n1,2,3\n\n4,5,{cell}\n7,8,9\n")
        with pytest.raises(DataError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (4, 3)
        assert cell in str(exc.value)

    def test_first_non_finite_cell_in_file_order_is_reported(self, tmp_path):
        path = write(tmp_path, "a,b\n1,inf\nnan,2\n")
        with pytest.raises(DataError) as exc:
            read_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (2, 2)

    @pytest.mark.parametrize(
        "text, error, row, column",
        [
            ("a,b\n1,2\n3,oops\n4\n", ParseError, 3, 2),
            ("a,b\nnan,2\n3,oops\n", DataError, 2, 1),
            ("a,b\n1\nnan,2\n", ParseError, 2, None),
            ("a,b\n1,2\nnan,oops\n", DataError, 3, 1),
            ("a,b\n1,2\noops,inf\n", ParseError, 3, 1),
        ],
        ids=["non-numeric-before-ragged", "non-finite-before-non-numeric",
             "ragged-before-non-finite", "non-finite-cell-first", "non-numeric-cell-first"],
    )
    def test_first_faulty_row_in_file_order_is_reported(self, tmp_path, text, error, row, column):
        # a row's fault is its width, else its first non-numeric or non-finite cell
        with pytest.raises(error) as exc:
            read_csv_matrix(write(tmp_path, text))
        assert (exc.value.row, exc.value.column) == (row, column)

    def test_block_parse_matches_float_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6))
        cells = [[repr(float(v)) for v in row] for row in vals]
        cells[0] = [" 1.5", "1.5 ", "1_000", "+1.", ".5", "-0"]
        cells[1] = ["1e-400", "0.1e+0_1", "\t2", "4E2", "-.25e-3", "7"]
        text = "a,b,c,d,e,f\n" + "".join(",".join(r) + "\n" for r in cells)
        _, data, _ = read_csv_matrix(write(tmp_path, text))
        want = np.array([[float(c) for c in r] for r in cells])
        assert data.tobytes() == want.tobytes()

    def test_header_only_file_gives_empty_block(self, tmp_path):
        labels, data, _ = read_csv_matrix(write(tmp_path, "a,b\n"))
        assert labels == ("a", "b")
        assert data.shape == (0, 2)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, newline):
        path = tmp_path / "panel.csv"
        path.write_bytes(newline.join([b"a,b", b"1,2", b"", b"3,\xff\xfe", b"5,6", b""]))
        with pytest.raises(ParseError) as err:
            read_csv_matrix(path)
        assert err.value.row == 4
        assert err.value.column is None
        assert str(err.value) == f"{path}: line 4 is not UTF-8: byte 0xff, invalid start byte"

    def test_not_utf8_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,\xff\n")
        with pytest.raises(ParseError) as err:
            read_csv_matrix(path)
        assert err.value.row == 3
        assert str(err.value) == f"{path}: line 3 is not UTF-8: byte 0xff, invalid start byte"

    def test_not_utf8_past_the_first_read_chunk_names_its_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        body = b"".join(b"%d,%d\n" % (i, i) for i in range(20000))
        path.write_bytes(b"a,b\n" + body + b"1,\xe9\n")
        with pytest.raises(ParseError) as err:
            read_csv_matrix(path)
        assert err.value.row == 20002


def outcome(path):
    """``read_csv_matrix(path)`` as comparable bytes: its result, or its error."""
    try:
        labels, data, lines = read_csv_matrix(path)
    except (ParseError, DataError) as exc:
        return type(exc), str(exc), exc.row, exc.column
    return labels, data.shape, data.dtype, data.tobytes(), lines


class TestPlainFilesParsedInC:
    """A plain file gives the same bytes through ``np.loadtxt`` as through
    ``csv.reader``; any other file takes the ``csv.reader`` path."""

    def csv_reader_outcome(self, path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(ingest_mod, "_read_plain", lambda path, text: None)
            return outcome(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    def test_plain_file_gives_the_csv_reader_bytes(self, tmp_path, monkeypatch, newline):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(
            rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-300, 300, size=(30, 4)),
            ("a", " b", "c ", "d"),
        )
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert b"\r\n" in path.read_bytes()  # the writer ends lines with CRLF
        text = path.read_bytes().decode().replace("\r\n", newline)
        path.write_bytes(text.encode())
        assert ingest_mod._read_plain(path, text.replace(newline, "\n")) is not None
        got = outcome(path)
        assert got == self.csv_reader_outcome(path, monkeypatch)
        assert got[0] == ("a", "b", "c", "d")
        assert got[3] == panel.values.tobytes()
        assert got[4] == tuple(range(2, 32))

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1_000,2\n3,4\n",
            '"a",b\n1,2\n',
            'a,b\n"1",2\n3,"4"\n',
            "a,b\n1,2\n\n3,4\n",
            "a\n1\n \n2\n",
            "a,b\n1,nan\n3,4\n",
            "a,b\n1,2\n-inf,4\n",
            "a,b\n",
            "a,b",
        ],
        ids=["underscore", "quoted-header", "quoted-cells", "blank-line",
             "whitespace-line", "nan", "inf", "header-only", "header-without-newline"],
    )
    def test_other_files_take_the_csv_reader_path(self, tmp_path, monkeypatch, text):
        path = write(tmp_path, text)
        assert ingest_mod._read_plain(path, text) is None
        assert outcome(path) == self.csv_reader_outcome(path, monkeypatch)

    def test_fallbacks_keep_their_results(self, tmp_path):
        # what the csv.reader path gives for a few of the files above
        _, data, lines = read_csv_matrix(write(tmp_path, "a,b\n1_000,2\n3,4\n"))
        np.testing.assert_array_equal(data, [[1000.0, 2.0], [3.0, 4.0]])
        _, _, lines = read_csv_matrix(write(tmp_path, "a,b\n1,2\n\n3,4\n"))
        assert lines == (2, 4)
        with pytest.raises(ParseError) as exc:
            read_csv_matrix(write(tmp_path, "a\n1\n \n2\n"))
        assert (exc.value.row, exc.value.column) == (3, 1)
        with pytest.raises(DataError) as exc:
            read_csv_matrix(write(tmp_path, "a,b\n1,2\n-inf,4\n"))
        assert (exc.value.row, exc.value.column) == (3, 1)


class TestIngest:
    def test_matches_spreadsheet_oracle_on_mixed_codes(self, tmp_path):
        raw = {
            "lvl": [5.0, 3.0, 8.0, 2.0, 7.0, 4.0, 9.0, 1.0, 6.0, 5.5],
            "lg": [1.0, 2.0, 4.0, 8.0, 16.0, 12.0, 6.0, 3.0, 1.5, 2.5],
            "d1": [10.0, 12.0, 11.0, 15.0, 14.0, 18.0, 16.0, 21.0, 19.0, 24.0],
            "ld2": [100.0, 110.0, 99.0, 130.0, 125.0, 160.0, 140.0, 190.0, 150.0, 210.0],
        }
        lines = ["lvl,lg,d1,ld2"]
        for i in range(10):
            lines.append(",".join(repr(raw[k][i]) for k in raw))
        path = write(tmp_path, "\n".join(lines) + "\n")
        codes = {"lg": "log", "d1": "diff1", "ld2": "log_diff2"}
        panel = ingest(path, codes)
        assert panel.labels == ("lvl", "lg", "d1", "ld2")
        assert panel.n_periods == 8  # 10 rows minus the max lag of 2
        expected = spreadsheet_transform(
            list(raw.values()), ["level", "log", "diff1", "log_diff2"]
        )
        np.testing.assert_allclose(
            panel.values, np.array(expected).T, atol=1e-12
        )

    def test_unlisted_columns_default_to_level(self, tmp_path):
        path = write(tmp_path, "a,b\n1,10\n2,20\n5,50\n")
        panel = ingest(path, {"b": "diff1"})
        assert panel.n_periods == 2
        expected = spreadsheet_transform([[1.0, 2.0, 5.0], [10.0, 20.0, 50.0]], ["level", "diff1"])
        np.testing.assert_allclose(panel.values, np.array(expected).T, atol=1e-12)

    def test_output_is_standardized(self, tmp_path):
        path = write(tmp_path, "a,b\n1,7\n4,2\n2,9\n8,3\n5,6\n")
        panel = ingest(path, {})
        np.testing.assert_allclose(panel.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(panel.values.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_too_few_rows_after_trimming(self, tmp_path):
        e = float(np.exp(1.0))
        path = write(tmp_path, f"a\n{e!r}\n{e ** 2!r}\n{e ** 4!r}\n")
        with pytest.raises(InsufficientDataError):
            ingest(path, {"a": "log_diff2"})

    def test_constant_transformed_column_is_degenerate(self, tmp_path):
        # diff1 of (1,2,3,4) is constant: no scale survives standardization
        path = write(tmp_path, "a,b\n1,5\n2,3\n3,9\n4,1\n")
        with pytest.raises(DegenerateColumnError) as exc:
            ingest(path, {"a": "diff1"})
        assert "a" in exc.value.labels

    def test_transform_map_must_name_existing_columns(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="absent"):
            ingest(path, {"zzz": "log"})

    def test_unknown_code_rejected_before_reading_data(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError) as exc:
            ingest(path, {"a": "sqrt"})
        want = f"unknown transform code 'sqrt' for 'a'; expected one of {TRANSFORM_CODES}"
        assert str(exc.value) == want

    def test_log_error_carries_column_label(self, tmp_path):
        path = write(tmp_path, "b,a\n1,2\n4,-3\n5,6\n")
        with pytest.raises(DataError) as exc:
            ingest(path, {"a": "log"})
        assert exc.value.row == 3
        assert exc.value.column == 2
        assert "'a'" in str(exc.value)
        assert "-3.0 at row 3, column 2" in str(exc.value)

    @pytest.mark.parametrize("code", ["diff1", "diff2"])
    def test_overflowing_difference_is_a_data_error_at_its_cell(self, tmp_path, code):
        path = write(tmp_path, "b,a\n1,2\n\n4,1e+308\n5,-1e+308\n6,7\n7,8\n")
        with pytest.raises(DataError) as exc:
            ingest(path, {"a": code})
        assert exc.value.row == 5
        assert exc.value.column == 2
        assert str(exc.value) == (
            f"{path}: {code} transform of column 'a' overflows at the cell -1e+308 "
            "at row 5, column 2"
        )


class TestPanelCsvRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = TimeSeriesPanel(rng.normal(size=(12, 3)), ("a", "b", "c"))
        path = tmp_path / "p.csv"
        write_panel_csv(panel, path)
        labels, values, _ = read_csv_matrix(path)
        assert labels == panel.labels
        np.testing.assert_array_equal(values, panel.values)

    def test_writes_shortest_round_trip_floats(self, tmp_path):
        panel = TimeSeriesPanel(
            [[0.1, 0.2], [0.3, 0.30000000000000004], [-0.0, 5e-324], [1e16, -1e16]], ("a", "b")
        )
        path = tmp_path / "p.csv"
        write_panel_csv(panel, path)
        assert path.read_text().splitlines() == [
            "a,b",
            "0.1,0.2",
            "0.3,0.30000000000000004",
            "-0.0,5e-324",
            "1e+16,-1e+16",
        ]
        _, values, _ = read_csv_matrix(path)
        # array_equal cannot tell -0.0 from 0.0; the bit patterns can
        np.testing.assert_array_equal(values.view(np.int64), panel.values.view(np.int64))
