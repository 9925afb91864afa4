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
from covclust.crossval import CvConfig, cv_result_to_json_obj, default_grid, select_threshold
from covclust.errors import ParseError
from covclust.ingest import ingest
from covclust.matrices import sym_from_csv, uniformity_diagnostics

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
        sigma = sym_from_csv(out / "truth_sigma.csv")
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
        cfg = CvConfig(
            t1=120, t2=240, grid=default_grid(panel, "spearman", 30), n_splits=25, seed=3
        )
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


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        src = str(Path(covclust.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "covclust", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "covclust" in proc.stdout
        assert "simulate" in proc.stdout
