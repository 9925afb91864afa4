"""Column order, end to end: permuting a panel's columns permutes the reports.

``covclust run`` on the bundled fixture, and ``covclust cluster`` on the
wide golden panel (whose CV splits are shared among workers), are rerun on
fixed column permutations of the input.  Reports keyed by label must be
the same; reports that name column indices must be the same once each
index is mapped back through the permutation.  The CV losses are the one
exception: each split's loss sums its entries in column order, so a
permutation may move them in the last bits, and they are compared within
a relative bound.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from covclust.cli import main
from test_golden import FIXTURES, ON_FIXTURE, write_wide_panel

# relative bound on the moved CV losses; about 5e-16 was measured
LOSS_RTOL = 1e-14


def permutations(j):
    """Two fixed column orders of ``j`` columns: reversed and shuffled."""
    return {
        "reversed": tuple(range(j))[::-1],
        "shuffled": tuple(int(k) for k in np.random.default_rng(5).permutation(j)),
    }


def write_permuted(src: Path, dst: Path, perm) -> Path:
    """``src`` with column ``k`` of ``dst`` taken from column ``perm[k]``, cells as written."""
    rows = (line.split(",") for line in src.read_text().splitlines())
    dst.write_text("".join(",".join(row[k] for k in perm) + "\n" for row in rows))
    return dst


def run(argv, out: Path) -> Path:
    assert main([*argv, "--out", str(out)]) == 0
    return out


def report(out: Path, name: str):
    return json.loads((out / name).read_text())


def assert_screen_permutes(base: Path, moved: Path, perm):
    want, got = report(base, "screen.json"), report(moved, "screen.json")
    assert [perm[i] for i in got["kept_indices"]] == want["kept_indices"]
    for key in ("kept_labels", "response", "signs", "threshold"):
        assert got[key] == want[key], key
    want_cv, got_cv = want.pop("cv"), got.pop("cv")
    losses = np.array(want_cv.pop("losses"))
    np.testing.assert_allclose(got_cv.pop("losses"), losses, rtol=LOSS_RTOL, atol=0.0)
    # the grid, the selection, the seed and the segment lengths exactly
    assert got_cv == want_cv


def assert_clusters_permute(base: Path, moved: Path, perm):
    want, got = report(base, "clusters.json"), report(moved, "clusters.json")
    for cluster in got["sets"]:
        cluster["indices"] = [perm[i] for i in cluster["indices"]]
    assert got == want
    assert (moved / "clusters.txt").read_bytes() == (base / "clusters.txt").read_bytes()


def fit_by_label(out: Path):
    """``fit.json``'s coefficients and each group's link rows, keyed by the
    group's labels, and the rest of ``fit.json``."""
    fit = report(out, "fit.json")
    fitted = fit.pop("groups")
    groups = [tuple(group["variables"]) for group in fitted]
    beta = {labels: group["beta"] for labels, group in zip(groups, fitted)}
    header, *rows = (out / "links.csv").read_text().splitlines()
    links = {labels: [] for labels in groups}
    for row in rows:
        number, rest = row.split(",", 1)
        links[groups[int(number) - 1]].append(rest)
    return header, beta, links, fit


@pytest.mark.parametrize("name", ["reversed", "shuffled"])
def test_run_on_the_fixture_permutes_with_its_columns(name, tmp_path):
    fixture = FIXTURES / "fixture_panel.csv"
    perm = permutations(len(fixture.read_text().split("\n", 1)[0].split(",")))[name]
    argv = list(ON_FIXTURE)
    base = run(["run", *argv], tmp_path / "base")
    argv[argv.index("--input") + 1] = str(write_permuted(fixture, tmp_path / "panel.csv", perm))
    moved = run(["run", *argv], tmp_path / name)
    assert_screen_permutes(base, moved, perm)
    assert_clusters_permute(base, moved, perm)
    assert fit_by_label(moved) == fit_by_label(base)
    assert report(moved, "report.json") == report(base, "report.json")


@pytest.mark.parametrize("name", ["reversed", "shuffled"])
def test_cluster_on_the_wide_panel_permutes_with_its_columns(name, tmp_path):
    panel = write_wide_panel(tmp_path / "wide.csv")
    perm = permutations(len(panel.read_text().split("\n", 1)[0].split(",")))[name]
    argv = ["cluster", "--response", "y", "--input"]
    base = run([*argv, str(panel)], tmp_path / "base")
    moved = run([*argv, str(write_permuted(panel, tmp_path / "panel.csv", perm))], tmp_path / name)
    assert_screen_permutes(base, moved, perm)
    assert_clusters_permute(base, moved, perm)


def test_series_with_equal_correlation_swap_with_their_columns(tmp_path):
    # The screen orders the kept series by |ρ|, then by column, so an exact
    # copy of s1 and s1 itself trade places when the columns are reversed,
    # and so do their coefficients.  Every other result keeps its label.
    rows = [line.split(",") for line in (FIXTURES / "fixture_panel.csv").read_text().splitlines()]
    s1 = rows[0].index("s1")
    rows = [row + [row[s1] if n else "s1dup"] for n, row in enumerate(rows)]
    panel = tmp_path / "panel.csv"
    panel.write_text("".join(",".join(row) + "\n" for row in rows))
    argv = list(ON_FIXTURE)
    argv[argv.index("--input") + 1] = str(panel)
    base = run(["run", *argv], tmp_path / "base")
    perm = permutations(len(rows[0]))["reversed"]
    argv[argv.index("--input") + 1] = str(write_permuted(panel, tmp_path / "rev.csv", perm))
    moved = run(["run", *argv], tmp_path / "reversed")

    want, got = report(base, "screen.json"), report(moved, "screen.json")
    assert want["kept_labels"][:2] == ["s1", "s1dup"]
    assert got["kept_labels"] == ["s1dup", "s1", *want["kept_labels"][2:]]
    assert got["threshold"] == want["threshold"]
    _, want_beta, _, want_fit = fit_by_label(base)
    _, got_beta, _, got_fit = fit_by_label(moved)
    assert {frozenset(g) for g in got_beta} == {frozenset(g) for g in want_beta}
    tied = ("s1", "s1dup", "s3", "s2")
    assert got_beta[("s1dup", "s1", "s3", "s2")] == want_beta[tied]
    assert want_beta[tied][0] != want_beta[tied][1]
    assert got_beta[("w2", "w1")] == want_beta[("w2", "w1")]
    assert got_fit == want_fit
