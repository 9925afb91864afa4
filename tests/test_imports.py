"""Import-time footprint of the command-line entry point, and names the benchmark needs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, covclust.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_targets_exist():
    # The benchmark's tracer wraps these functions by name; a missing one
    # would break a traced run.
    path = SRC.parent / "benchmark" / "worker.py"
    spec = importlib.util.spec_from_file_location("benchmark_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.WRAPPED
    for module, attr, *_ in worker.WRAPPED:
        target = getattr(importlib.import_module(f"covclust.{module}"), attr, None)
        assert callable(target), f"covclust.{module}.{attr}"
