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
    read_panel_csv,
    transform_lag,
    write_panel_csv,
)
from covclust.panel import TimeSeriesPanel
from oracles import spreadsheet_transform


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestTransformLag:
    def test_known_codes(self):
        assert transform_lag("level") == 0
        assert transform_lag("log") == 0
        assert transform_lag("diff1") == 1
        assert transform_lag("log_diff1") == 1
        assert transform_lag("diff2") == 2
        assert transform_lag("log_diff2") == 2

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown transform"):
            transform_lag("boxcox")

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


class TestReadCsvMatrix:
    def test_reads_labels_and_data(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        labels, data = read_csv_matrix(path)
        assert labels == ("a", "b")
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n\n3,4\n\n")
        _, data = read_csv_matrix(path)
        assert data.shape == (2, 2)

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

    def test_block_parse_matches_float_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6))
        cells = [[repr(float(v)) for v in row] for row in vals]
        cells[0] = [" 1.5", "1.5 ", "1_000", "+1.", ".5", "-0"]
        cells[1] = ["1e-400", "0.1e+0_1", "\t2", "4E2", "-.25e-3", "7"]
        text = "a,b,c,d,e,f\n" + "".join(",".join(r) + "\n" for r in cells)
        _, data = read_csv_matrix(write(tmp_path, text))
        want = np.array([[float(c) for c in r] for r in cells])
        assert data.tobytes() == want.tobytes()

    def test_header_only_file_gives_empty_block(self, tmp_path):
        labels, data = read_csv_matrix(write(tmp_path, "a,b\n"))
        assert labels == ("a", "b")
        assert data.shape == (0, 2)


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
        with pytest.raises(ValueError, match="unknown transform"):
            ingest(path, {"a": "sqrt"})

    def test_log_error_carries_column_label(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n-3,4\n5,6\n")
        with pytest.raises(DataError) as exc:
            ingest(path, {"a": "log"})
        assert exc.value.column == "a"
        assert exc.value.row == 1


class TestPanelCsvRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = TimeSeriesPanel(rng.normal(size=(12, 3)), ("a", "b", "c"))
        path = tmp_path / "p.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.labels == panel.labels
        np.testing.assert_array_equal(back.values, panel.values)

    def test_writes_shortest_round_trip_floats(self, tmp_path):
        panel = TimeSeriesPanel([[0.1, 0.2], [0.3, 0.30000000000000004]], ("a", "b"))
        path = tmp_path / "p.csv"
        write_panel_csv(panel, path)
        text = path.read_text()
        assert "0.30000000000000004" in text
        assert text.splitlines()[1] == "0.1,0.2"
