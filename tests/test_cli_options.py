"""The command line's option table: the config fields it covers, echoed
arguments, precedence, config-file checks, required options, the
numeric-failure slug, and byte-identical reports at any BLAS thread count."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covclust
import covclust.cli
from covclust.cli import main, parse_config_file
from covclust.crossval import CvTemplate
from covclust.errors import ParseError
from covclust.groupfit import FitConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PANEL_CSV = FIXTURES / "fixture_panel.csv"
RUN_CONFIG = FIXTURES / "run_config.txt"


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


def error_payload(capsys):
    return json.loads(capsys.readouterr().out)


class TestMetaEchoesResolvedOptions:
    def test_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--config", RUN_CONFIG, "--input", PANEL_CSV, "--n-splits", 5, "--out", out
        )
        assert code == 0
        capsys.readouterr()
        assert read_json(out / "meta.json")["arguments"] == {
            "command": "run",
            "input": str(PANEL_CSV),
            "response": "y",
            "transforms": "y=level",
            "mode": "forward",
            "tolerance": 1e-6,
            "max_iter": 200,
            "t1": None,
            "t2": None,
            "n_splits": 5,
            "grid_size": 50,
            "seed": 7,
            "out": str(out),
        }

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COVCLUST_SEED", raising=False)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--j", 4, "--t", 10, "--out", out) == 0
        capsys.readouterr()
        assert read_json(out / "meta.json")["arguments"] == {
            "command": "simulate",
            "j": 4,
            "t": 10,
            "structure": "random_sparse",
            "block_sizes": None,
            "bandwidth": 2,
            "decay": 0.5,
            "density": 0.1,
            "dependence": "iid",
            "m": 1,
            "var_radius": 0.5,
            "seed": 0,
            "out": str(out),
        }

    def test_threshold(self, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run_cli(
            "threshold", "--input", PANEL_CSV, "--n-splits", 3, "--grid-size", 5,
            "--seed", 8, "--out", out,
        )
        assert code == 0
        capsys.readouterr()
        assert read_json(out / "meta.json")["arguments"] == {
            "command": "threshold",
            "input": str(PANEL_CSV),
            "transforms": "",
            "matrix_kind": "covariance",
            "t1": None,
            "t2": None,
            "n_splits": 3,
            "grid_size": 5,
            "seed": 8,
            "out": str(out),
        }

    def test_cluster(self, tmp_path, capsys):
        out = tmp_path / "clu"
        code = run_cli(
            "cluster", "--input", PANEL_CSV, "--response", "y", "--mode", "backward",
            "--t1", 100, "--n-splits", 5, "--seed", 8, "--out", out,
        )
        assert code == 0
        capsys.readouterr()
        assert read_json(out / "meta.json")["arguments"] == {
            "command": "cluster",
            "input": str(PANEL_CSV),
            "response": "y",
            "transforms": "",
            "mode": "backward",
            "t1": 100,
            "t2": None,
            "n_splits": 5,
            "grid_size": 50,
            "seed": 8,
            "out": str(out),
        }


class TestOptionTableCoversConfigs:
    @pytest.mark.parametrize(
        "config, commands",
        [(FitConfig, ("run",)), (CvTemplate, ("run", "threshold", "cluster"))],
        ids=["FitConfig", "CvTemplate"],
    )
    def test_every_field_is_an_option(self, config, commands):
        # a field with no row of the option table is one no command can set
        rows = {opt.name: opt for opt in covclust.cli._OPTIONS}
        for field in dataclasses.fields(config):
            assert field.name in rows, f"{config.__name__}.{field.name} has no option"
            opt = rows[field.name]
            assert set(commands) <= set(opt.commands), field.name
            assert opt.default == field.default, field.name


class TestPrecedence:
    def _n_splits(self, out, capsys, *extra):
        code = run_cli(
            "cluster", "--input", PANEL_CSV, "--response", "y", "--grid-size", 5, "--out", out,
            *extra,
        )
        assert code == 0
        capsys.readouterr()
        return read_json(out / "screen.json")["cv"]["n_splits"]

    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("n-splits = 7\n")
        assert self._n_splits(tmp_path / "flag", capsys, "--config", cfg, "--n-splits", 5) == 5
        assert self._n_splits(tmp_path / "file", capsys, "--config", cfg) == 7
        assert self._n_splits(tmp_path / "default", capsys) == 100

    def test_t2_follows_given_t1(self, tmp_path, capsys):
        # the fixture keeps all 540 rows under `level`
        for t1, t2 in ((50, 100), (300, 240)):
            out = tmp_path / f"t{t1}"
            code = run_cli(
                "threshold", "--input", PANEL_CSV, "--t1", t1, "--n-splits", 2,
                "--grid-size", 3, "--out", out,
            )
            assert code == 0
            cv = read_json(out / "cv.json")
            assert (cv["t1"], cv["t2"]) == (t1, t2)
        capsys.readouterr()


class TestConfigFileChecks:
    def test_unknown_key_reports_row(self, tmp_path):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("seed = 1\n\nn-split = 5\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(cfg)
        assert err.value.row == 3
        assert "n_split" in str(err.value)

    def test_repeated_key_reports_row(self, tmp_path):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("seed = 1\n# comment\nn_splits = 4\nseed = 2\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(cfg)
        assert err.value.row == 4
        assert "'seed'" in str(err.value)

    def test_repeat_spelled_with_dash_is_a_repeat(self, tmp_path, capsys):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("n_splits = 4\nn-splits = 5\n")
        out = tmp_path / "o"
        code = run_cli(
            "cluster", "--config", cfg, "--input", PANEL_CSV, "--response", "y", "--out", out
        )
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "parse-error"
        assert payload["row"] == 2
        assert "n_splits" in payload["message"]
        assert not out.exists()

    def test_unknown_key_fails_the_command(self, tmp_path, capsys):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("n-split = 5\n")
        out = tmp_path / "o"
        code = run_cli(
            "cluster", "--config", cfg, "--input", PANEL_CSV, "--response", "y", "--out", out
        )
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "parse-error"
        assert payload["row"] == 1
        assert not out.exists()

    def test_key_of_another_subcommand_is_accepted(self, tmp_path, capsys):
        # run_config.txt sets `response`, which `threshold` does not take
        out = tmp_path / "cv"
        code = run_cli(
            "threshold", "--config", RUN_CONFIG, "--input", PANEL_CSV, "--n-splits", 2,
            "--grid-size", 3, "--out", out,
        )
        assert code == 0
        capsys.readouterr()
        args = read_json(out / "meta.json")["arguments"]
        assert args["seed"] == 7 and args["transforms"] == "y=level"
        assert "response" not in args

    def test_file_value_outside_choices_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "opts.txt"
        cfg.write_text("mode = sideways\n")
        code = run_cli(
            "cluster", "--config", cfg, "--input", PANEL_CSV, "--response", "y",
            "--out", tmp_path / "o",
        )
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert "--mode" in payload["message"] and "sideways" in payload["message"]


class TestRequiredOptions:
    def test_run_names_missing_response(self, tmp_path, capsys):
        code = run_cli("run", "--input", PANEL_CSV, "--out", tmp_path / "o")
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert payload["message"] == "run requires --response"

    def test_response_still_needs_a_transform(self, tmp_path, capsys):
        code = run_cli("run", "--input", PANEL_CSV, "--response", "y", "--out", tmp_path / "o")
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert "transform map" in payload["message"]


class TestNumericFailure:
    @pytest.mark.parametrize(
        "error", [np.linalg.LinAlgError("Singular matrix"), MemoryError("Unable to allocate")]
    )
    def test_fit_failure_reports_numeric_failure(self, error, tmp_path, capsys, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise error

        monkeypatch.setattr(covclust.cli, "fit", failing_fit)
        code = run_cli("run", "--config", RUN_CONFIG, "--input", PANEL_CSV,
                       "--out", tmp_path / "o")
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "numeric-failure"
        assert payload["stage"] == "run"
        assert payload["message"] == str(error)


class TestBlasThreadCount:
    # threshold's covariance estimate is made in the CLI, run's and cluster's
    # Spearman estimate in screen; each job lists every report it writes
    JOBS = (
        (("run",), ("clusters.json", "clusters.txt", "fit.json", "links.csv",
                    "report.json", "screen.json")),
        (("cluster",), ("clusters.json", "clusters.txt", "screen.json")),
        (("threshold", "--matrix-kind", "covariance"), ("cv.json",)),
    )

    def test_reports_identical_with_one_and_two_threads(self, tmp_path):
        src = str(Path(covclust.__file__).resolve().parent.parent)
        for command, reports in self.JOBS:
            outs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                out = tmp_path / f"{command[0]}-threads{threads}"
                proc = subprocess.run(
                    [sys.executable, "-m", "covclust", *command, "--config", str(RUN_CONFIG),
                     "--input", str(PANEL_CSV), "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stdout + proc.stderr
                outs.append(out)
            for out in outs:
                names = sorted(p.name for p in out.iterdir() if p.name != "meta.json")
                assert names == sorted(reports), command
            for name in reports:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (command, name)
