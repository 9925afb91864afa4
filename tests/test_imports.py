"""Import-time footprint of the command-line entry point, the names each module
and the package export, the names the benchmark needs, the one ``np.exp``,
the one spread about the anchors and the one smoother build, the callers of
the thread pool, the one file read and the one ``np.random.default_rng``."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "covclust"
# __main__ runs the command line when imported, so it is parsed, never imported
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")
# the modules whose public names the package re-exports
LIBRARY = ("crossval", "errors", "groupfit", "ingest", "matrices", "panel", "pipeline", "simulate")


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
    # A traced benchmark run (benchmark/run.py --trace 1) wraps each
    # (module, function) of the worker's WRAPPED table by name; a missing
    # one would break it.  The worker is parsed, not imported.
    tree = ast.parse((SRC.parent / "benchmark" / "worker.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    targets = [tuple(ast.literal_eval(cell) for cell in row.elts[:2]) for row in table.elts]
    assert targets
    for module, attr in targets:
        target = getattr(importlib.import_module(f"covclust.{module}"), attr, None)
        assert callable(target), f"covclust.{module}.{attr}"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"covclust.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"covclust.{module}.__all__ names missing {name!r}"
    exec(f"from covclust.{module} import *", {})


def public_names():
    """The package's names that are neither private nor modules, sorted."""
    import covclust

    return tuple(
        sorted(
            name
            for name, value in vars(covclust).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        )
    )


def test_package_exports_exactly_the_library_modules_names():
    import covclust

    owners = {}
    for module in LIBRARY:
        mod = importlib.import_module(f"covclust.{module}")
        for name in mod.__all__:
            assert name not in owners, f"{name!r} is in {owners.get(name)} and {module}"
            owners[name] = mod
    assert set(public_names()) == set(owners)
    for name, mod in owners.items():
        assert getattr(covclust, name) is getattr(mod, name), name


# The package's public names.  A change that grows or shrinks the API shows here.
PUBLIC = (
    "ClusterResult", "CovclustError", "CvConfig", "CvResult", "DataError",
    "DegenerateColumnError", "DegenerateResponseError", "DependenceKind", "DependenceSpec",
    "EmptyScreenError", "FitConfig", "GroupwiseFit", "InfeasibleDependenceError",
    "InsufficientDataError", "InternalConsistencyError", "IterationRecord", "MatrixKind",
    "ModelSpec", "ParseError", "ScreenResult", "SparseCovModel", "Structure", "StructureKind",
    "SymMatrix", "TRANSFORM_CODES", "TimeSeriesPanel", "UniformityParams", "apply_transform",
    "build_model_spec", "cluster_backward", "cluster_forward", "clusters_to_json_obj",
    "clusters_to_text", "cv_result_to_json_obj", "default_grid", "draw_split",
    "explained_variation", "fit", "fit_to_json_obj", "gen_panel", "hard_threshold", "ingest",
    "kernel_weight", "links_to_csv", "make_sparse_cov", "model_to_json_obj", "predict",
    "random_var1", "rank_by_degree", "read_csv_matrix", "sample_covariance", "screen",
    "screen_to_json_obj", "select_threshold", "spearman_matrix", "standardize", "sym_to_csv",
    "uniformity_diagnostics", "write_panel_csv",
)


def test_public_names_are_pinned():
    assert public_names() == PUBLIC


def test_errors_exports_every_public_error_class():
    from covclust import errors

    classes = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value)
        and issubclass(value, errors.CovclustError)
        and not name.startswith("_")
    }
    assert classes == set(errors.__all__)


def test_every_private_definition_is_used_in_the_package():
    # A private helper that only tests call belongs in the tests, not in src.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    assert private
    assert sorted(private - used) == []


def test_the_fit_kernel_is_the_two_exp_calls():
    # Gaussian weights come from two routines.  The iterations' moment pass
    # expands the exponent into one product per block, within a few
    # eps (1 + max|u|²) of the elementwise weight, which the pooled step
    # tolerates.  The link smoothers and kernel_weight keep the elementwise
    # _kernel_matrix: a smoother accepts local-linear rows down to a
    # determinant of 1e-12 s0² h², so its weights carry only their own
    # pair's rounding.
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "exp"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                ):
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("groupfit", "_kernel_matrix"), ("groupfit", "_kernel_moments")]


def call_sites(name):
    """``(module, top-level definition)`` of each call ``name(...)`` or
    ``<x>.name(...)`` in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None),
                ):
                    sites.append((path.stem, getattr(top, "name", None)))
    return sites


def test_each_iteration_applies_the_moment_identity_once():
    # The spread about each anchor is formed once, for the coefficients;
    # the local-linear surface projects it onto the indices, so the
    # identity is not applied a second time in index space.
    assert call_sites("_spread_about_anchors") == [("groupfit", "_iteration_step")]


def test_each_link_smoother_is_built_once():
    # One smoother per group holds the training rows, which the sweeps read,
    # and the grid rows, which the tabulation reads.
    assert call_sites("_smoother_matrix") == [("groupfit", "_backfit_links")]


def test_the_pool_serves_the_cv_splits_and_one_row_block_driver():
    # The CV shares its splits, and the fit's kernel-moment pass and the
    # link smoothers share their row blocks through one driver, so the
    # block size, the per-worker buffer and the worker cap are stated once.
    assert call_sites("each_block") == [
        ("crossval", "_loss_curve"),
        ("groupfit", "_each_row_block"),
    ]


def test_input_files_are_read_in_one_place():
    # The CSV panel and the config file are each read once, as bytes, by
    # one routine that decodes them and reports a bad byte's line.
    assert call_sites("read_bytes") == [("ingest", "_read_lines")]


def test_every_draw_comes_from_the_one_stream():
    # Split offsets and simulated targets, panels and coefficients all read
    # crossval._stream, so the seed is checked and masked in one place.
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "default_rng":
                    sites.append((path.stem, getattr(top, "name", None)))
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.BitAnd)
                    and isinstance(node.right, ast.Name)
                    and node.right.id == "_SEED_MASK"
                ):
                    sites.append((path.stem, getattr(top, "name", None), "mask"))
    assert sorted(sites) == [("crossval", "_stream"), ("crossval", "_stream", "mask")]
