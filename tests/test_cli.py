"""End-to-end command-line tests against the bundled two-group panel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covclust
from covclust.cli import main, parse_config_file
from covclust.crossval import CvConfig, cv_result_to_json_obj, select_threshold
from covclust.errors import ParseError
from covclust.ingest import ingest, read_csv_matrix
from covclust.matrices import SymMatrix, uniformity_diagnostics

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PANEL_CSV = FIXTURES / "fixture_panel.csv"
RUN_CONFIG = FIXTURES / "run_config.txt"
TRUTH = json.loads((FIXTURES / "truth.json").read_text())

RUN_OUTPUTS = (
    "screen.json",
    "clusters.json",
    "clusters.txt",
    "fit.json",
    "links.csv",
    "report.json",
    "meta.json",
)


def run_cli(*args):
    return main([str(a) for a in args])


def cluster_label_sets(clusters_obj):
    return sorted(sorted(s["labels"]) for s in clusters_obj["sets"])


def overflow_panel(tmp_path, cells=("1e+308", "-1e+308")):
    """The fixture with column 8 (s1) set to ``cells`` on file lines 7 and 8."""
    lines = PANEL_CSV.read_text().splitlines()
    for line, cell in zip((7, 8), cells):
        row = lines[line - 1].split(",")
        row[7] = cell
        lines[line - 1] = ",".join(row)
    path = tmp_path / "overflow.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = run_cli("run", "--config", RUN_CONFIG, "--input", PANEL_CSV, "--out", out)
    assert code == 0
    return out


class TestRunCommand:
    def test_writes_every_report(self, run_dir):
        for name in RUN_OUTPUTS:
            assert (run_dir / name).is_file(), name

    def test_report_keys_and_values(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert sorted(report) == [
            "K",
            "S",
            "converged",
            "iterations",
            "r_squared",
            "selected_threshold",
        ]
        assert report["K"] == len(TRUTH["signal_labels"])
        assert report["S"] == len(TRUTH["groups"])
        assert report["converged"] is True
        assert report["r_squared"] > 0.8

    def test_screen_recovers_signal_columns(self, run_dir):
        screen = json.loads((run_dir / "screen.json").read_text())
        assert sorted(screen["kept_labels"]) == TRUTH["signal_labels"]
        assert screen["response"] == TRUTH["response"]
        assert set(screen["cv"]) == {"grid", "losses", "selected", "seed", "t1", "t2", "n_splits"}

    def test_clusters_recover_generating_groups(self, run_dir):
        clusters = json.loads((run_dir / "clusters.json").read_text())
        assert clusters["mode"] == "forward"
        assert cluster_label_sets(clusters) == sorted(TRUTH["groups"])

    def test_clusters_text_layout(self, run_dir):
        lines = (run_dir / "clusters.txt").read_text().splitlines()
        assert len(lines) == len(TRUTH["groups"])
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"set {i} (score ")

    def test_meta_carries_timestamp_and_arguments(self, run_dir):
        meta = json.loads((run_dir / "meta.json").read_text())
        assert set(meta) == {"timestamp", "version", "arguments"}
        assert meta["arguments"]["command"] == "run"
        assert meta["arguments"]["seed"] == 7

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run_cli("run", "--config", RUN_CONFIG, "--input", PANEL_CSV, "--out", out2) == 0
        for name in RUN_OUTPUTS:
            if name == "meta.json":
                continue
            assert (run_dir / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_backward_mode_matches_forward_on_block_panel(self, run_dir, tmp_path):
        out2 = tmp_path / "backward"
        code = run_cli(
            "run",
            "--config",
            RUN_CONFIG,
            "--input",
            PANEL_CSV,
            "--out",
            out2,
            "--mode",
            "backward",
        )
        assert code == 0
        forward = json.loads((run_dir / "clusters.json").read_text())
        backward = json.loads((out2 / "clusters.json").read_text())
        assert backward["mode"] == "backward"
        assert backward["sets"] == forward["sets"]


class TestErrorPaths:
    def test_malformed_csv_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        code = run_cli(
            "run", "--input", bad, "--response", "a", "--transforms", "a=level", "--out", tmp_path / "o"
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "parse-error"
        assert payload["stage"] == "run"
        assert payload["row"] == 3
        assert payload["column"] == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_reports_data_error_location(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1,2\n\n3,{cell}\n5,6\n")
        code = run_cli(
            "run", "--input", bad, "--response", "a", "--transforms", "a=level", "--out", tmp_path / "o"
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "data-error"
        assert payload["stage"] == "run"
        assert payload["row"] == 4
        assert payload["column"] == 2

    def test_log_of_non_positive_cell_reports_file_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,a\n1,2\n\n2,-1\n3,4\n4,5\n")
        code = run_cli("cluster", "--input", bad, "--response", "y", "--transforms", "a=log",
                       "--out", tmp_path / "o")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "data-error"
        assert payload["stage"] == "cluster"
        assert payload["row"] == 4
        assert payload["column"] == 2
        assert "-1.0 at row 4, column 2" in payload["message"]
        assert "np.float64" not in payload["message"]

    def test_overflowing_difference_reports_file_location(self, tmp_path, capsys):
        code = run_cli("run", "--config", RUN_CONFIG, "--input", overflow_panel(tmp_path),
                       "--transforms", "y=level,s1=diff1", "--out", tmp_path / "o")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "data-error"
        assert payload["stage"] == "run"
        assert payload["row"] == 8
        assert payload["column"] == 8
        assert "diff1 transform of column 's1' overflows" in payload["message"]

    @pytest.mark.parametrize("bad_file", ["input", "config"])
    def test_file_that_is_not_utf8_reports_parse_error_location(self, tmp_path, capsys, bad_file):
        panel, cfg = tmp_path / "panel.csv", tmp_path / "opts.txt"
        panel.write_bytes(b"a,b\n1,2\n3,5\n4,4\n6,7\n")
        cfg.write_bytes(b"# options\nseed = 2\nmatrix-kind = spearman\n")
        bad = panel if bad_file == "input" else cfg
        lines = bad.read_bytes().split(b"\n")
        lines[2] += b"\xff\xfe"
        bad.write_bytes(b"\n".join(lines))
        code = run_cli("threshold", "--input", panel, "--config", cfg, "--out", tmp_path / "o")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "parse-error"
        assert payload["stage"] == "threshold"
        assert payload["row"] == 3
        assert "column" not in payload
        assert str(bad) in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_duplicate_label_reports_parse_error_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,a\n1,2,3\n4,5,6\n7,8,9\n")
        code = run_cli("cluster", "--input", bad, "--response", "a", "--out", tmp_path / "o")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "parse-error"
        assert payload["stage"] == "cluster"
        assert payload["row"] == 1
        assert payload["column"] == 3
        assert "'a'" in payload["message"]

    def test_all_noise_panel_reports_empty_screen(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((60, 6))
        lines = ["y,a,b,c,d,e"]
        lines += [",".join(repr(float(v)) for v in row) for row in rows]
        noisy = tmp_path / "noise.csv"
        noisy.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run",
            "--input",
            noisy,
            "--response",
            "y",
            "--transforms",
            "y=level",
            "--out",
            tmp_path / "o",
            "--seed",
            "1",
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "empty-screen"
        assert "threshold" in payload
        assert payload["stage"] == "run"

    def test_missing_input_is_invalid_argument(self, capsys):
        code = run_cli("run", "--response", "y", "--transforms", "y=level")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "invalid-argument"

    def test_nonexistent_file_exits_nonzero_with_json(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--input",
            tmp_path / "missing.csv",
            "--response",
            "y",
            "--transforms",
            "y=level",
            "--out",
            tmp_path / "o",
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage"] == "run"
        assert payload["message"]

    @pytest.mark.parametrize(
        "flag, name",
        [("--input", "nope.csv"), ("--config", "nope.txt"), ("--input", "")],
        ids=["missing-input", "missing-config", "directory-input"],
    )
    def test_unreadable_file_is_io_error(self, tmp_path, capsys, flag, name):
        path = tmp_path / name  # an empty name leaves the directory itself
        out = tmp_path / "o"
        code = run_cli("threshold", flag, path, "--out", out)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "io-error"
        assert payload["stage"] == "threshold"
        assert payload["path"] == str(path)
        assert not out.exists()

    def test_unknown_response_message_is_not_quoted_twice(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("cluster", "--input", PANEL_CSV, "--response", "zz", "--out", out)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "invalid-argument"
        assert payload["message"] == "unknown response label 'zz'"
        assert not out.exists()

    def test_unknown_transform_code_rejected(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--input",
            PANEL_CSV,
            "--response",
            "y",
            "--transforms",
            "y=exp",
            "--out",
            tmp_path / "o",
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "invalid-argument"
        assert "exp" in payload["message"]

    def test_repeated_transform_label_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "threshold", "--input", PANEL_CSV, "--transforms", "y=log,y=diff1", "--out", out
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "invalid-argument"
        assert payload["stage"] == "threshold"
        assert "'y'" in payload["message"]
        assert not out.exists()

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestSimulateCommand:
    def test_fixed_seed_is_bit_identical(self, tmp_path, capsys):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = run_cli(
                "simulate", "--j", 8, "--t", 40, "--structure", "diagonal", "--seed", 9, "--out", out
            )
            assert code == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("panel.csv", "truth_sigma.csv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_block_model_passes_uniformity_recheck(self, tmp_path, capsys):
        out = tmp_path / "block"
        code = run_cli(
            "simulate",
            "--j",
            10,
            "--t",
            50,
            "--structure",
            "block",
            "--block-sizes",
            "3,3,4",
            "--seed",
            5,
            "--out",
            out,
        )
        assert code == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text())
        labels, entries, _ = read_csv_matrix(out / "truth_sigma.csv")
        sigma = SymMatrix(entries, labels)
        max_diag, max_row = uniformity_diagnostics(sigma, model["uniformity"]["q"])
        assert max_diag == model["uniformity"]["M"]
        assert max_row == model["uniformity"]["c0"]

    def test_m_zero_equals_iid(self, tmp_path, capsys):
        out_iid = tmp_path / "iid"
        out_m0 = tmp_path / "m0"
        assert run_cli("simulate", "--j", 6, "--t", 30, "--seed", 4, "--out", out_iid) == 0
        code = run_cli(
            "simulate",
            "--j",
            6,
            "--t",
            30,
            "--seed",
            4,
            "--dependence",
            "m_dependent",
            "--m",
            0,
            "--out",
            out_m0,
        )
        assert code == 0
        capsys.readouterr()
        assert (out_iid / "panel.csv").read_bytes() == (out_m0 / "panel.csv").read_bytes()

    def test_var1_records_requested_radius(self, tmp_path, capsys):
        out = tmp_path / "var1"
        code = run_cli(
            "simulate",
            "--j",
            5,
            "--t",
            30,
            "--dependence",
            "var1",
            "--var-radius",
            "0.4",
            "--seed",
            2,
            "--out",
            out,
        )
        assert code == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text())
        assert model["dependence"]["kind"] == "var1"
        assert abs(model["dependence"]["radius"] - 0.4) < 1e-8


class TestThresholdCommand:
    def test_cv_json_matches_library_call(self, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run_cli(
            "threshold",
            "--input",
            PANEL_CSV,
            "--matrix-kind",
            "spearman",
            "--t1",
            120,
            "--t2",
            240,
            "--n-splits",
            25,
            "--grid-size",
            30,
            "--seed",
            3,
            "--out",
            out,
        )
        assert code == 0
        capsys.readouterr()
        got = json.loads((out / "cv.json").read_text())

        panel = ingest(PANEL_CSV, {})
        cfg = CvConfig(t1=120, t2=240, grid_size=30, n_splits=25, seed=3)
        expected = cv_result_to_json_obj(select_threshold(panel, cfg, "spearman"))
        assert got["selected"] == expected["selected"]
        assert got["grid"] == [float(g) for g in expected["grid"]]
        assert got["losses"] == [float(v) for v in expected["losses"]]
        assert got["t1"] == 120 and got["t2"] == 240 and got["n_splits"] == 25

    def test_requires_input(self, capsys):
        assert run_cli("threshold") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "invalid-argument"


class TestClusterCommand:
    def test_screen_and_group_only(self, tmp_path, capsys):
        out = tmp_path / "clu"
        code = run_cli(
            "cluster",
            "--input",
            PANEL_CSV,
            "--response",
            "y",
            "--transforms",
            "y=level",
            "--seed",
            7,
            "--out",
            out,
        )
        assert code == 0
        capsys.readouterr()
        assert not (out / "fit.json").exists()
        clusters = json.loads((out / "clusters.json").read_text())
        assert cluster_label_sets(clusters) == sorted(TRUTH["groups"])


class TestConfigPrecedence:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "opts.txt"
        cfg.write_text(
            "# a comment\n"
            "\n"
            "seed = 11\n"
            "n-splits = 40   # trailing comment\n"
            "response=y\n"
        )
        assert parse_config_file(cfg) == {"seed": "11", "n_splits": "40", "response": "y"}

    def test_bad_config_line_reports_row(self, tmp_path):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(cfg)
        assert err.value.row == 2

    def test_config_bytes_that_are_not_utf8_report_row(self, tmp_path):
        cfg = tmp_path / "opts.txt"
        cfg.write_bytes(b"seed = 1\n# response\nresponse = \xff\xfey\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(cfg)
        assert err.value.row == 3
        assert str(err.value) == f"{cfg}: line 3 is not UTF-8: byte 0xff, invalid start byte"

    def _sim_seed(self, tmp_path, capsys, *extra):
        out = tmp_path / f"p{len(extra)}"
        code = run_cli("simulate", "--j", 4, "--t", 10, "--out", out, *extra)
        assert code == 0
        capsys.readouterr()
        return json.loads((out / "model.json").read_text())["seed"]

    def test_flag_beats_file_beats_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("seed = 11\n")
        monkeypatch.setenv("COVCLUST_SEED", "99")
        assert self._sim_seed(tmp_path, capsys, "--config", cfg, "--seed", 3) == 3
        assert self._sim_seed(tmp_path, capsys, "--config", cfg) == 11
        assert self._sim_seed(tmp_path, capsys) == 99
        monkeypatch.delenv("COVCLUST_SEED")
        assert self._sim_seed(tmp_path, capsys, "--j", 5) == 0


def run_module(*args):
    src = str(Path(covclust.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "covclust", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "covclust" in proc.stdout
        assert "simulate" in proc.stdout


class TestQuietStderr:
    # A run writes its outcome to stdout and its reports to files; nothing,
    # numpy's floating-point warnings included, goes to stderr.

    @pytest.mark.parametrize(
        "args, cells, exit_code",
        [
            ((), None, 0),
            (("--transforms", "y=level,s1=diff1"), ("1e+308", "-1e+308"), 1),
            ((), ("1e+308", "-1e+308"), 0),
            ((), ("1e+308", "1e+308"), 1),
        ],
        ids=["fixture", "diff1-overflow", "level-at-float-limit", "two-equal-extremes"],
    )
    def test_run_writes_nothing_to_stderr(self, tmp_path, args, cells, exit_code):
        panel = PANEL_CSV if cells is None else overflow_panel(tmp_path, cells)
        proc = run_module("run", "--config", RUN_CONFIG, "--input", panel, *args,
                          "--out", tmp_path / "o")
        assert proc.returncode == exit_code, proc.stdout
        assert proc.stderr == ""

    def test_threshold_at_float_limit_writes_nothing_to_stderr(self, tmp_path):
        proc = run_module("threshold", "--matrix-kind", "covariance",
                          "--input", overflow_panel(tmp_path), "--out", tmp_path / "o")
        assert proc.returncode == 0, proc.stdout
        assert proc.stderr == ""

    def test_quote_open_past_the_field_limit_is_a_parse_error(self, tmp_path):
        # the quote on line 2 swallows the rest of the file, more than
        # csv.reader's 131072-character field limit
        panel = tmp_path / "panel.csv"
        panel.write_text("y,b\n\"1,2\n" + "".join(f"{i},{i}\n" for i in range(30000)))
        proc = run_module("cluster", "--response", "y", "--input", panel, "--out", tmp_path / "o")
        assert proc.returncode == 1, proc.stdout
        payload = json.loads(proc.stdout)
        assert (payload["error"], payload["row"]) == ("parse-error", 2)
        assert proc.stderr == ""
