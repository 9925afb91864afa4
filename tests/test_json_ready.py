"""Every report producer returns built-in types only.

The command line hands these objects straight to ``json.dump``, so a numpy
integer, numpy bool or array anywhere in them would fail the command.  Plain
``json.dumps`` with no ``default`` raises on each of those, so it pins the
contract.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from covclust.cli import _error_payload, parse_config_file
from covclust.crossval import CvConfig, cv_result_to_json_obj, select_threshold
from covclust.errors import (
    DataError,
    DegenerateColumnError,
    EmptyScreenError,
    ParseError,
)
from covclust.groupfit import FitConfig, fit, fit_to_json_obj
from covclust.ingest import ingest, read_csv_matrix
from covclust.panel import TimeSeriesPanel
from covclust.pipeline import (
    build_model_spec,
    cluster_forward,
    clusters_to_json_obj,
    screen,
    screen_to_json_obj,
)
from covclust.simulate import (
    DependenceSpec,
    Structure,
    make_sparse_cov,
    model_to_json_obj,
    random_var1,
)

PANEL_CSV = Path(__file__).resolve().parent.parent / "fixtures" / "fixture_panel.csv"


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


def test_screen_cluster_and_fit_reports_on_fixture():
    panel = ingest(PANEL_CSV, {"y": "level"})
    scr = screen(panel, "y", CvConfig(n_splits=10, seed=7))
    clu = cluster_forward(scr)
    spec = build_model_spec(scr, clu)
    result = fit(panel, spec, FitConfig(max_iter=5))
    dumps(screen_to_json_obj(scr, panel.labels))
    dumps(clusters_to_json_obj(clu, panel.labels))
    dumps(fit_to_json_obj(result, spec, panel.labels))


@pytest.mark.parametrize("matrix_kind", ["covariance", "spearman"])
def test_cv_report_on_fixture(matrix_kind):
    panel = ingest(PANEL_CSV)
    dumps(cv_result_to_json_obj(select_threshold(panel, CvConfig(n_splits=5), matrix_kind)))


def test_model_report_for_each_dependence_kind():
    model = make_sparse_cov(6, Structure.random_sparse(0.3), seed=1)
    for dep in (DependenceSpec.iid(), DependenceSpec.m_dependent(2), random_var1(model, 0.5, 1)):
        dumps(model_to_json_obj(model, dep, 40, 3))
    # the stream takes numpy integers as seeds, so the report must store them as ints
    assert dumps(model_to_json_obj(model, DependenceSpec.iid(), np.int64(40), np.int64(3))) == (
        dumps(model_to_json_obj(model, DependenceSpec.iid(), 40, 3))
    )


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return info.value


def _write(path, text):
    path.write_text(text)
    return path


def test_error_payload_of_each_located_or_labelled_error(tmp_path):
    rng = np.random.default_rng(5)
    noise = TimeSeriesPanel(rng.standard_normal((60, 6)), ("y", "a", "b", "c", "d", "e"))
    errors = [
        _raised(read_csv_matrix, _write(tmp_path / "dup.csv", "a,b,a\n1,2,3\n4,5,6\n")),
        _raised(parse_config_file, _write(tmp_path / "cfg.txt", "seed = 1\nnot an option\n")),
        _raised(read_csv_matrix, _write(tmp_path / "nan.csv", "y,a\n1,2\n2,nan\n")),
        _raised(ingest, _write(tmp_path / "neg.csv", "y,a\n1,2\n2,-1\n3,4\n"), {"a": "log"}),
        _raised(ingest, _write(tmp_path / "const.csv", "y,a\n" + "".join(
            f"{k},1\n" for k in range(8)))),
        _raised(screen, noise, "y", CvConfig(seed=1)),
    ]
    kinds = [ParseError, ParseError, DataError, DataError, DegenerateColumnError, EmptyScreenError]
    for exc, kind in zip(errors, kinds):
        assert type(exc) is kind
        payload = _error_payload(exc, "stage")
        assert set(payload) - {"error", "stage", "message"}, kind
        dumps(payload)
