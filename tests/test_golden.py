"""Committed reports that every refactor must reproduce byte for byte.

``tests/golden/<name>/`` holds what one command wrote, ``meta.json`` left
out (it carries a timestamp).  Each command is rerun in a fresh interpreter
at one BLAS thread and every report is compared with its golden copy.  A
change that alters a golden file on purpose says why in CHANGES.md.

The bytes hold per numpy build and SIMD dispatch target: numpy picks its
vectorised loops by CPU at import, and a loop for another target can round
a sum differently.  The committed files come from numpy 2.4.6 dispatching
to AVX-512 (``X86_V4``, ``AVX512_ICL``, ``AVX512_SPR``).  The
cross-validation reports (``threshold``, the wide panel's ``cluster`` and
``threshold``, and ``run``'s ``screen.json`` and ``clusters.*``) take no
sum whose order a SIMD loop sets, and are rerun with AVX-512, then AVX2
(``X86_V3``) too, switched off through ``NPY_DISABLE_CPU_FEATURES``.
``run``'s ``fit.json`` and ``links.csv`` go through ``np.exp`` and differ
in the last digits without AVX-512.  A failure names the numpy version,
the dispatch targets and the OpenBLAS core it ran with: numpy's
``show_config`` gives OpenBLAS's build target, not the core it picked at
load, so the core is read from the library.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import covclust
from covclust import _pool, crossval
from covclust.ingest import write_panel_csv
from covclust.panel import TimeSeriesPanel

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ON_FIXTURE = ("--config", str(FIXTURES / "run_config.txt"),
              "--input", str(FIXTURES / "fixture_panel.csv"))

COMMANDS = {
    "run": ("run", *ON_FIXTURE),
    "threshold": ("threshold", "--matrix-kind", "covariance", *ON_FIXTURE),
    "simulate": ("simulate", "--j", "12", "--t", "80", "--dependence", "var1", "--seed", "3"),
    # the block, banded, iid and m-dependent generator paths
    "simulate_block": ("simulate", "--j", "14", "--t", "120", "--structure", "block",
                       "--block-sizes", "3,4,7", "--dependence", "m_dependent", "--m", "2",
                       "--seed", "3"),
    "simulate_banded": ("simulate", "--j", "12", "--t", "80", "--structure", "banded",
                        "--bandwidth", "2", "--decay", "0.5", "--seed", "4"),
}

# Commands on the wide panel (write_wide_panel), whose CV splits are shared
# among workers, and the reports of each kept in golden/<name>
WIDE_COMMANDS = {
    "cluster_wide": (("cluster", "--response", "y"), ("screen.json",)),
    "threshold_wide": (("threshold", "--matrix-kind", "covariance"), ("cv.json",)),
}

# NPY_DISABLE_CPU_FEATURES values: without AVX-512, and without AVX2 too
SIMD_SETTINGS = {
    "no-avx512": "X86_V4 AVX512_ICL AVX512_SPR",
    "no-avx2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


def write_wide_panel(path):
    """Write the wide golden panel to ``path``: a response, six series
    correlated with it and noise, five series past the CV worker gate."""
    j = crossval._CV_MIN_SERIES + 5
    rng = numpy.random.default_rng(11)
    t = 200
    y = rng.normal(size=t)
    signal = 0.7 * y[:, None] + 0.7 * rng.normal(size=(t, 6))
    values = numpy.column_stack([y, signal, rng.normal(size=(t, j - 7))])
    labels = ("y", *(f"s{i}" for i in range(6)), *(f"n{i}" for i in range(j - 7)))
    write_panel_csv(TimeSeriesPanel(values, labels), path)
    return path


def openblas_core():
    """The core numpy's bundled OpenBLAS runs, or "unknown" without that library."""
    corename = getattr(_pool.openblas_library(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def assert_reports_match_golden(name, argv, out, env=None, reports=None):
    """Run ``covclust *argv`` into ``out`` and compare its ``reports`` with
    ``golden/name``; by default every golden report, and no other is written.

    ``env`` adds to the environment, which sets one BLAS thread.
    """
    src = str(Path(covclust.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "covclust", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if reports is None:
        reports = sorted(p.name for p in (GOLDEN / name).iterdir())
        written = sorted(p.name for p in out.iterdir() if p.name != "meta.json")
        assert written == reports
    simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    disabled = env.get("NPY_DISABLE_CPU_FEATURES")
    for report in reports:
        assert (out / report).read_bytes() == (GOLDEN / name / report).read_bytes(), (
            f"{report} differs from its golden copy under numpy {numpy.__version__}, "
            f"SIMD extensions {simd}, NPY_DISABLE_CPU_FEATURES {disabled!r}, "
            f"OpenBLAS core {openblas_core()}"
        )


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reports_match_golden_bytes(name, tmp_path):
    assert_reports_match_golden(name, COMMANDS[name], tmp_path / name)


@pytest.mark.parametrize("flag,fixture", [
    ("--input", "fixture_panel.csv"),
    ("--config", "run_config.txt"),
])
def test_file_with_byte_order_mark_gives_golden_run(flag, fixture, tmp_path):
    # spreadsheet programs save UTF-8 with the mark EF BB BF in front
    marked = tmp_path / fixture
    marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / fixture).read_bytes())
    argv = list(COMMANDS["run"])
    argv[argv.index(flag) + 1] = str(marked)
    assert_reports_match_golden("run", argv, tmp_path / "run")


@pytest.mark.parametrize("disabled", SIMD_SETTINGS.values(), ids=SIMD_SETTINGS)
def test_cv_reports_do_not_depend_on_the_simd_target(disabled, tmp_path):
    env = {"NPY_DISABLE_CPU_FEATURES": disabled}
    for name in ("threshold", "run"):
        reports = ("clusters.json", "clusters.txt", "screen.json") if name == "run" else None
        assert_reports_match_golden(name, COMMANDS[name], tmp_path / name, env, reports)
    panel = write_wide_panel(tmp_path / "panel.csv")
    for name, (argv, reports) in WIDE_COMMANDS.items():
        argv = (*argv, "--input", str(panel))
        assert_reports_match_golden(name, argv, tmp_path / name, env, reports)


def test_openblas_core_is_named():
    # the name a golden failure reports
    core = openblas_core()
    assert isinstance(core, str) and core and core.isprintable()
