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
from covclust.crossval import CvConfig
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
        [(FitConfig, ("run",)), (CvConfig, ("run", "threshold", "cluster"))],
        ids=["FitConfig", "CvConfig"],
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

    @pytest.mark.parametrize("text, key, value", [
        ("seed = 1\n# comment\nmode = sideways\n", "mode", "sideways"),
        ("seed = 1\n\nn-splits = ten\n", "n_splits", "ten"),
    ], ids=["outside_choices", "failed_cast"])
    def test_bad_file_value_reports_row(self, text, key, value, tmp_path, capsys):
        cfg = tmp_path / "opts.txt"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = run_cli(
            "cluster", "--config", cfg, "--input", PANEL_CSV, "--response", "y", "--out", out
        )
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "parse-error"
        assert payload["row"] == 3
        assert repr(key) in payload["message"] and repr(value) in payload["message"]
        assert str(cfg) in payload["message"]
        assert not out.exists()

    def test_bad_flag_value_keeps_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", PANEL_CSV, "--response", "y", "--mode", "sideways",
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert "invalid choice: 'sideways'" in capsys.readouterr().err


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


class TestFitOptionsCheckedFirst:
    @pytest.mark.parametrize(
        "flag, value",
        [("--max-iter", 0), ("--tolerance", 0), ("--tolerance", "nan"), ("--tolerance", "inf")],
    )
    def test_bad_fit_option_writes_no_report(self, flag, value, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--config", RUN_CONFIG, "--input", PANEL_CSV, flag, value,
                       "--out", out)
        assert code == 1
        assert error_payload(capsys)["error"] == "invalid-argument"
        assert not out.exists()


class TestCvOptionsCheckedFirst:
    @pytest.mark.parametrize(
        "command",
        [("run", "--config", RUN_CONFIG), ("cluster", "--config", RUN_CONFIG), ("threshold",)],
        ids=["run", "cluster", "threshold"],
    )
    @pytest.mark.parametrize("flag, value", [("--n-splits", 0), ("--grid-size", 0), ("--t2", 1)])
    def test_bad_cv_option_fails_before_ingest(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(*command, "--input", tmp_path / "missing.csv", flag, value, "--out", out)
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert flag[2:].replace("-", "_") in payload["message"]
        assert not out.exists()


class TestSplitSizeErrors:
    @pytest.mark.parametrize(
        "command", [("threshold",), ("cluster", "--response", "y")], ids=["threshold", "cluster"]
    )
    def test_panel_under_four_rows_is_insufficient_data(self, command, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("y,a\n1,2\n2,1\n3,5\n")
        out = tmp_path / "o"
        assert run_cli(*command, "--input", short, "--out", out) == 1
        payload = error_payload(capsys)
        assert payload["error"] == "insufficient-data"
        assert "T=3" in payload["message"]
        assert not out.exists()

    def test_t1_leaving_under_two_rows_names_t1_and_t(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("threshold", "--input", PANEL_CSV, "--t1", 1000, "--out", out) == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert "t1=1000" in payload["message"] and "T=540" in payload["message"]
        assert "-460" not in payload["message"]  # a t2 the user never set

    def test_oversized_t1_plus_t2(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("threshold", "--input", PANEL_CSV, "--t1", 300, "--t2", 300, "--out", out)
        assert code == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert "t1 + t2 = 300 + 300 exceeds panel length T=540" in payload["message"]
        assert not out.exists()


class TestFailedCommandWritesNothing:
    def test_failed_run_leaves_earlier_reports_untouched(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("run", "--config", RUN_CONFIG, "--input", PANEL_CSV, "--n-splits", 5,
                       "--out", out) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # 12 rows of 15 near-copies of one trend: every series passes the
        # screen, so the fit has more coefficients than periods
        rows = np.arange(12.0)[:, None] + 0.01 * np.random.default_rng(1).standard_normal((12, 15))
        short = tmp_path / "short.csv"
        short.write_text(",".join(["y"] + [f"c{k}" for k in range(14)]) + "\n"
                         + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
        code = run_cli("run", "--input", short, "--response", "y", "--transforms", "y=level",
                       "--seed", 0, "--out", out)
        assert code == 1
        assert error_payload(capsys)["error"] == "insufficient-data"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_threshold_creates_no_default_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("threshold", "--input", "nope.csv", "--n-splits", 0) == 1
        assert error_payload(capsys)["error"] == "invalid-argument"
        assert list(tmp_path.iterdir()) == []


class TestSeedFromEnvironment:
    def test_bad_value_names_variable_and_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVCLUST_SEED", "abc")
        out = tmp_path / "o"
        assert run_cli("threshold", "--input", PANEL_CSV, "--out", out) == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert "COVCLUST_SEED='abc'" in payload["message"]
        assert not out.exists()


class TestVarRadiusChecked:
    @pytest.mark.parametrize("radius", ["nan", "-0.5"])
    def test_bad_radius_is_invalid_argument(self, radius, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("simulate", "--j", 6, "--t", 20, "--dependence", "var1",
                       "--var-radius", radius, "--out", out)
        assert code == 1
        assert error_payload(capsys)["error"] == "invalid-argument"
        assert not (out / "panel.csv").exists()


class TestBlockSizesChecked:
    @pytest.mark.parametrize("entry", ["x", "2.0"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_bad_entry_is_invalid_argument_naming_it(self, route, entry, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["simulate", "--j", 6, "--t", 20, "--structure", "block", "--out", out]
        if route == "flag":
            args += ["--block-sizes", f"3,{entry}"]
        else:
            config = tmp_path / "sim.txt"
            config.write_text(f"block_sizes = 3,{entry}\n")
            args += ["--config", config]
        assert run_cli(*args) == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert payload["message"] == f"--block-sizes entry {entry!r} is not an integer"
        assert not out.exists()


class TestTransformsChecked:
    def test_entry_without_code_is_invalid_argument(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("threshold", "--input", PANEL_CSV, "--transforms", "y",
                       "--out", out) == 1
        payload = error_payload(capsys)
        assert payload["error"] == "invalid-argument"
        assert payload["message"] == "transform entry 'y' is not LABEL=CODE"
        assert not out.exists()

    def test_trailing_empty_entry_is_skipped(self, tmp_path, capsys):
        for name, transforms in (("plain", "y=level"), ("trailing", "y=level,")):
            assert run_cli("threshold", "--input", PANEL_CSV, "--transforms", transforms,
                           "--n-splits", 5, "--out", tmp_path / name) == 0
        capsys.readouterr()
        assert (tmp_path / "trailing" / "cv.json").read_bytes() == (
            tmp_path / "plain" / "cv.json"
        ).read_bytes()


def test_block_structure_without_sizes_is_invalid_argument(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("simulate", "--j", 6, "--t", 20, "--structure", "block", "--out", out) == 1
    payload = error_payload(capsys)
    assert payload["error"] == "invalid-argument"
    assert payload["message"] == "block structure requires --block-sizes, e.g. 3,3,4"
    assert not out.exists()


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
