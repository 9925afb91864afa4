"""Moment-form groupwise fit: parity with the tensor form, robustness, caps, predict.

The tensor-form references live in ``oracles.py``; they build the T×T×d
displacement tensors that ``covclust.groupfit`` avoids.
"""

import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import covclust
from covclust import _pool, groupfit
from covclust.cli import main
from covclust.groupfit import (
    FitConfig,
    fit,
    fit_to_json_obj,
    kernel_weight,
    links_to_csv,
    predict,
)
from covclust.ingest import ingest
from covclust.panel import TimeSeriesPanel
from covclust.pipeline import ModelSpec
from oracles import (
    direct_backfit_links,
    direct_local_constant_rows,
    direct_smooth1d,
    tensor_local_linear_surface,
    tensor_pooled_normal_equations,
    tensor_pooled_objective,
    whole_smoother_matrix,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_close_to_scale(got, want, rtol=1e-9):
    """Every entry within ``rtol`` of the reference's largest magnitude."""
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * scale)


def random_case(seed):
    """Random panel pieces for one iteration: groups, indices, bandwidths, coefficients."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(30, 160))
    sizes = [int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
    k = sum(sizes)
    offsets = np.cumsum([0] + sizes)
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    x = rng.normal(size=(t, k)) * rng.uniform(0.5, 3.0, size=k) + rng.normal(size=k)
    beta = rng.normal(size=k)
    v = np.column_stack([x[:, sl] @ beta[sl] for sl in slices])
    y = np.sin(v).sum(axis=1) + 0.3 * rng.normal(size=t) + rng.normal()
    h = 1.06 * v.std(axis=0, ddof=1) * t ** (-1.0 / (4.0 + len(sizes)))
    h *= rng.uniform(0.5, 2.0, size=len(sizes))
    return x, slices, v, y, h, beta


def step_inputs(x, slices, y, beta, h):
    """``_iteration_step``'s arguments, built as ``fit`` builds them."""
    xc = x - x.mean(axis=0)
    group_of = np.concatenate([np.full(sl.stop - sl.start, s) for s, sl in enumerate(slices)])
    b = np.zeros((len(beta), len(slices)))
    b[np.arange(len(beta)), group_of] = beta
    rows = groupfit._moment_rows(np.column_stack([xc, y - y.mean()]))
    return xc @ b, h, rows, xc, b, group_of


# worker counts of the kernel-moment pass: one, two, three and the cap
WORKER_COUNTS = (1, 2, 3, groupfit._KERNEL_MAX_WORKERS)


def full_kernel(vc, h):
    """The T×T weight matrix of one iteration, built in one piece."""
    return kernel_weight(vc[None, :, :] - vc[:, None, :], h)


def group_slices(group_of, n_groups):
    """Each group's slice of the coefficients, from the coefficient-to-group index."""
    return [slice(int(idx[0]), int(idx[-1]) + 1)
            for idx in (np.flatnonzero(group_of == s) for s in range(n_groups))]


def tensor_iteration_step(vc, h, rows, xc, b, group_of):
    """``_iteration_step`` composed from the tensor-form oracles."""
    w = full_kernel(vc, h)
    yc = rows[1 + xc.shape[1]]  # the moment row of the centred response
    slices = group_slices(group_of, b.shape[1])
    level, slope = tensor_local_linear_surface(vc, yc, w)
    return (level, slope, *tensor_pooled_normal_equations(w, xc, slices, slope, yc, level))


@pytest.mark.parametrize("seed", range(12))
def test_surface_and_pooled_step_match_tensor_form(seed):
    x, slices, v, y, h, beta = random_case(seed)
    args = step_inputs(x, slices, y, beta, h)
    level, slope, g, c, e0, weight_sum = groupfit._iteration_step(*args)
    w = full_kernel(args[0], h)  # the step's kernel weights, built whole
    # the oracles see the uncentred columns; the step's level is centred like y
    want_level, want_slope = tensor_local_linear_surface(v, y, w)
    assert_close_to_scale(level + y.mean(), want_level)
    assert_close_to_scale(slope, want_slope)

    want_g, want_c, want_e0, want_sum = tensor_pooled_normal_equations(
        w, x, slices, slope, y, level + y.mean()
    )
    assert_close_to_scale(g, want_g)
    assert_close_to_scale(c, want_c)
    assert e0 == pytest.approx(want_e0, rel=1e-9)
    assert weight_sum == pytest.approx(want_sum, rel=1e-12)
    np.testing.assert_array_equal(g, g.T)

    # the objective that fit records, read off the normal equations
    obj = (beta @ g @ beta - 2.0 * c @ beta + e0) / weight_sum
    want_obj = tensor_pooled_objective(w, x, slices, slope, beta, y, level + y.mean())
    assert obj == pytest.approx(want_obj, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matrix_is_kernel_weight_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    v = rng.normal(size=(50, 1 + seed)) * rng.uniform(0.1, 10.0)
    h = rng.uniform(0.2, 2.0, size=v.shape[1])
    want = full_kernel(v, h)
    sq, z = np.empty((50, 50)), np.empty((50, 50))
    norm = groupfit._kernel_norm(h)
    np.testing.assert_array_equal(groupfit._kernel_matrix(v, v, h, sq, z) / norm, want)
    got = groupfit._kernel_matrix(v[7:20], v, h, sq[:13], z[:13]) / norm
    np.testing.assert_array_equal(got, want[7:20])


def moment_case(t, s):
    """Indices, bandwidths and moment rows for one kernel-moment pass."""
    rng = np.random.default_rng(t * 10 + s)
    v = rng.normal(size=(t, s)) * rng.uniform(0.1, 10.0)
    h = rng.uniform(0.2, 2.0, size=s)
    return v, h, groupfit._moment_rows(rng.normal(size=(t, 3)))


def block_sums(w, rows, size):
    """``_weighted_sums`` of ``w``'s blocks of ``size`` rows, one by one, stacked."""
    return np.vstack([groupfit._weighted_sums(w[i : i + size], rows)
                      for i in range(0, len(w), size)])


def scaled_indices(v, h):
    """``u = (v - mean v) / h``, the indices the expanded exponent is written in."""
    return (v - v.mean(axis=0)) / h


def exponent_tables(v, h):
    """``A = [u, -|u|²/2, 1]`` and ``B = [u, 1, -|u|²/2 - log norm]``: ``A_i · B_j``
    is the exponent of the kernel weight between indices ``i`` and ``j``."""
    u = scaled_indices(v, h)
    half_sq = -0.5 * np.einsum("ts,ts->t", u, u)
    ones = np.ones(len(v))
    log_norm = np.log(groupfit._kernel_norm(h))
    return np.column_stack([u, half_sq, ones]), np.column_stack([u, ones, half_sq - log_norm])


def expanded_kernel(v, h, size):
    """The T×T weights of the expanded exponent, ``exp(A B')``, built ``size`` rows
    at a time by ``_weighted_sums``, as the kernel-moment pass builds its blocks."""
    a, b = exponent_tables(v, h)
    return np.exp(block_sums(a, b, size))


def assert_within_expansion_bound(w, v, h):
    """Every weight finite, non-negative and within ``8 eps (1 + max|u|²)`` of the
    elementwise ``kernel_weight``, relative, plus one subnormal step for the
    rounding of a weight that underflows."""
    u = scaled_indices(v, h)
    tol = 8.0 * np.finfo(float).eps * (1.0 + float(np.max(np.sum(u * u, axis=1))))
    want = full_kernel(v, h)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert np.all(np.abs(w - want) <= tol * want + np.finfo(float).smallest_subnormal)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [2, 63, 64, 65, 130, 1200])
def test_kernel_moments_match_full_matrix_bit_for_bit(t, s, block, monkeypatch, use_workers):
    if block is not None:
        monkeypatch.setattr(groupfit, "_KERNEL_BLOCK_ROWS", block)
    v, h, rows = moment_case(t, s)
    size = groupfit._KERNEL_BLOCK_ROWS
    with _pool.one_blas_thread():
        # a BLAS product's bytes may depend on its row count: the reference is
        # the expanded weights built and summed in the pass's blocks, one at a time
        w = expanded_kernel(v, h, size)
        want = block_sums(w, rows, size)
        for workers in WORKER_COUNTS:
            use_workers(workers)
            np.testing.assert_array_equal(groupfit._kernel_moments(v, h, rows), want)
    # the expansion's weights are the elementwise kernel's within its rounding
    assert_within_expansion_bound(w, v, h)
    # and the sums are within rounding of one summation order over the whole
    # matrix: each within 1e-13 of the sum of its terms' magnitudes
    exact = np.einsum("ij,kj->ik", w, rows)
    assert np.all(np.abs(want - exact) <= 1e-13 * np.einsum("ij,kj->ik", w, np.abs(rows)))


@pytest.mark.parametrize("s", [1, 2, 4])
def test_an_index_far_from_the_rest_keeps_finite_weights_within_the_bound(s, use_workers):
    # index 0 lies 40 bandwidths from the others in every dimension: its
    # |u|² is near 1600 S, so the expansion cancels terms that large down to
    # its own weight, and its weights with the rest are tiny or underflow
    rng = np.random.default_rng(40 + s)
    t = 130
    h = rng.uniform(0.2, 2.0, size=s)
    v = rng.normal(size=(t, s)) * h
    v[0] = v[1:].mean(axis=0) + 40.0 * h
    rows = groupfit._moment_rows(rng.normal(size=(t, 3)))
    use_workers(2)
    with _pool.one_blas_thread():
        w = expanded_kernel(v, h, groupfit._KERNEL_BLOCK_ROWS)
        want = block_sums(w, rows, groupfit._KERNEL_BLOCK_ROWS)
        np.testing.assert_array_equal(groupfit._kernel_moments(v, h, rows), want)
    assert_within_expansion_bound(w, v, h)
    assert w[0, 0] > 0.0 and np.max(w[0, 1:]) < 1e-250


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("t", [2, 65, 1200])
def test_without_a_blas_pin_the_pass_sums_in_numpy_loops(t, s, hidden_blas_pin, use_workers):
    assert not _pool.can_pin_blas()
    with _pool.one_blas_thread() as pinned:
        assert pinned is False
    v, h, rows = moment_case(t, s)
    # numpy's own loop forms each exponent and each sum on its own: the bytes
    # of the whole matrix, built and summed in one piece
    a, b = exponent_tables(v, h)
    want = np.einsum("ij,kj->ik", np.exp(np.einsum("ij,kj->ik", a, b)), rows)
    for workers in WORKER_COUNTS:
        use_workers(workers)
        np.testing.assert_array_equal(groupfit._kernel_moments(v, h, rows), want)


@pytest.mark.skipif(not _pool.can_pin_blas(), reason="numpy ships no OpenBLAS thread-count call")
def test_blas_pin_restores_the_thread_count_it_found():
    get, set_ = _pool._openblas_thread_calls()
    before = get()
    try:
        set_(2)
        with _pool.one_blas_thread() as pinned:
            assert pinned and get() == 1
            # an overlapping block keeps the pin and leaves the count to the first
            with _pool.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        # a failing block restores the count too
        with pytest.raises(RuntimeError), _pool.one_blas_thread():
            raise RuntimeError
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("seed", range(4))
def test_smoother_matrix_matches_direct_smoother(seed):
    rng = np.random.default_rng(200 + seed)
    v = rng.normal(size=80) * 3.0
    target = np.cos(v) + 0.2 * rng.normal(size=80)
    grid = np.linspace(v.min(), v.max(), 37)
    # at h = 0.02 some training points are alone in their window and take the
    # local-constant branch; between training points that bandwidth leaves
    # the local-linear system near-singular, where any two orderings of the
    # arithmetic differ by its conditioning, so the grid is left out there
    for h, v_eval in ((0.02, v), (0.4, v), (1.0, grid), (5.0, v), (5.0, grid)):
        smoother, fallback_rows = groupfit._smoother_matrix(v, h, v_eval)
        got = groupfit._smooth(smoother, target)
        assert_close_to_scale(got, direct_smooth1d(v, target, h, v_eval))
        assert fallback_rows == direct_local_constant_rows(v, h, v_eval)


def test_smoother_counts_its_local_constant_rows():
    # alone in its window, the point at 0 has s1 = s2 = 0: no local-linear fit
    smoother, fallback_rows = groupfit._smoother_matrix(
        np.array([0.0, 10.0]), 0.1, np.array([0.0])
    )
    assert fallback_rows == 1
    np.testing.assert_array_equal(smoother, [[1.0, 0.0]])


@pytest.mark.parametrize("n_eval", [1, 63, 64, 65, 130])
def test_blocked_smoother_is_the_whole_matrix_bit_for_bit(n_eval, use_workers):
    rng = np.random.default_rng(n_eval)
    v = rng.normal(size=150) * 3.0
    # the first point lies far beyond the others, alone in its window at
    # h = 0.02, as are many more there: their rows fall back
    v_eval = np.concatenate([[v.max() + 1.0], v, np.linspace(v.min(), v.max(), 130)])[:n_eval]
    for h in (0.02, 0.4, 5.0):
        want, want_fallbacks = whole_smoother_matrix(v, h, v_eval)
        for workers in (1, 2, 3, 8):
            use_workers(workers)
            got, fallbacks = groupfit._smoother_matrix(v, h, v_eval)
            np.testing.assert_array_equal(got, want)
            assert fallbacks == want_fallbacks
        assert want_fallbacks > 0 or h > 0.02


def test_backfit_peak_memory_is_its_smoothers(use_workers):
    # T = 2000, S = 2: the two kept T×T smoothers take 64 MB and the two
    # 100-point grid smoothers 3.2 MB; a build adds one block×T buffer per
    # worker (1 MB each), not T×T temporaries as the whole-matrix build did
    # (97 MB in all)
    rng = np.random.default_rng(12)
    t = 2000
    v = rng.normal(size=(t, 2))
    y = np.sin(v).sum(axis=1) + 0.3 * rng.normal(size=t)
    buffer = groupfit._KERNEL_BLOCK_ROWS * t * 8
    # at this machine's worker count, then at the cap
    for workers in (None, groupfit._KERNEL_MAX_WORKERS):
        if workers is not None:
            use_workers(workers)
        threads = min(_pool._available_cores(), groupfit._KERNEL_MAX_WORKERS)
        tracemalloc.start()
        try:
            groupfit._backfit_links(v, y, groupfit._bandwidths(v), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * t * t * 8 + 2 * 100 * t * 8 + threads * buffer + 2**20


def test_backfit_sums_training_and_grid_fallback_rows():
    # a cluster of points plus one far outlier: the outlier and the grid
    # points in the gap have no neighbours within the bandwidth
    rng = np.random.default_rng(5)
    v = np.column_stack([np.append(np.linspace(0.0, 0.5, 51), 10.0), rng.normal(size=52)])
    y = rng.normal(size=52)
    h = np.array([0.1, 0.5])
    _, _, fallback_rows = groupfit._backfit_links(v, y, h, 100)
    grids = [np.linspace(col.min(), col.max(), 100) for col in v.T]
    want = tuple(
        groupfit._smoother_matrix(v[:, j], h[j], v[:, j])[1]
        + groupfit._smoother_matrix(v[:, j], h[j], grids[j])[1]
        for j in range(2)
    )
    assert fallback_rows == want
    assert fallback_rows[0] > 1 and fallback_rows[1] == 0


def _tensor_form(monkeypatch):
    monkeypatch.setattr(groupfit, "_iteration_step", tensor_iteration_step)
    monkeypatch.setattr(groupfit, "_backfit_links", direct_backfit_links)


def _panel_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    y = x @ np.array([0.6, 0.5, 0.4])
    spec = ModelSpec(response=0, response_label="y", groups=((1, 2, 3),))
    return TimeSeriesPanel(np.column_stack([y, x]), ("y", "a", "b", "c")), spec


def _panel_sign():
    rng = np.random.default_rng(42)
    x1 = rng.normal(size=300)
    x2 = 0.9 * x1 + np.sqrt(1.0 - 0.81) * rng.normal(size=300)
    y = x1 - 0.1 * x2 + 0.05 * rng.normal(size=300)
    spec = ModelSpec(response=0, response_label="y", groups=((1, 2),),
                     sign_constraints={1: 1, 2: 1})
    return TimeSeriesPanel(np.column_stack([y, x1, x2]), ("y", "x1", "x2")), spec


def _panel_singletons():
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-2, 2, size=400)
    x2 = rng.uniform(-2, 2, size=400)
    y = x1**2 + np.sin(2.0 * x2) + 0.05 * rng.normal(size=400)
    spec = ModelSpec(response=0, response_label="y", groups=((1,), (2,)))
    return TimeSeriesPanel(np.column_stack([y, x1, x2]), ("y", "x1", "x2")), spec


def _panel_two_groups():
    rng = np.random.default_rng(11)
    b1 = np.array([2.0, 1.0, 1.0]) / np.linalg.norm([2.0, 1.0, 1.0])
    b2 = np.array([1.0, 2.0]) / np.linalg.norm([1.0, 2.0])
    x = rng.normal(size=(500, 5))
    y = (x[:, :3] @ b1) ** 2 + np.sin(x[:, 3:] @ b2) + 0.1 * rng.normal(size=500)
    spec = ModelSpec(response=0, response_label="y", groups=((1, 2, 3), (4, 5)))
    return TimeSeriesPanel(np.column_stack([y, x]), ("y", "a1", "a2", "a3", "b1", "b2")), spec


def _panel_fixture():
    truth = json.loads((FIXTURES / "truth.json").read_text())
    panel = ingest(FIXTURES / "fixture_panel.csv", {"y": "level"})
    index = {label: i for i, label in enumerate(panel.labels)}
    groups = tuple(tuple(index[label] for label in g) for g in truth["groups"])
    spec = ModelSpec(response=index["y"], response_label="y", groups=groups)
    return panel, spec


@pytest.mark.parametrize(
    "make", [_panel_linear, _panel_sign, _panel_singletons, _panel_two_groups, _panel_fixture],
    ids=["linear", "sign", "singletons", "two_groups", "fixture"],
)
def test_fit_matches_tensor_form(make, monkeypatch):
    panel, spec = make()
    got = fit(panel, spec)
    with monkeypatch.context() as m:
        _tensor_form(m)
        want = fit(panel, spec)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.link_fallback_rows == want.link_fallback_rows
    for b_got, b_want in zip(got.beta, want.beta):
        np.testing.assert_allclose(b_got, b_want, rtol=0.0, atol=1e-9)
    assert_close_to_scale(got.final_g, want.final_g)
    assert_close_to_scale(got.final_c, want.final_c)
    for (g_got, v_got), (g_want, v_want) in zip(got.links, want.links):
        assert_close_to_scale(g_got, g_want)
        assert_close_to_scale(v_got, v_want)
    assert got.r_squared == pytest.approx(want.r_squared, rel=1e-9)


@pytest.mark.parametrize(
    "make", [_panel_linear, _panel_sign, _panel_two_groups, _panel_fixture],
    ids=["linear", "sign", "two_groups", "fixture"],
)
def test_recorded_objective_matches_tensor_residual(make, monkeypatch):
    panel, spec = make()
    steps = []
    moment_form = groupfit._iteration_step

    def spy(vc, h, rows, xc, b, group_of):
        out = moment_form(vc, h, rows, xc, b, group_of)
        steps.append((full_kernel(vc, h), rows[1 + xc.shape[1]], xc, b, group_of,
                      out[1], out[0]))
        return out

    monkeypatch.setattr(groupfit, "_iteration_step", spy)
    res = fit(panel, spec, FitConfig(max_iter=4))
    assert len(steps) == len(res.trace)
    for (w, yc, xc, b, group_of, slope, level), rec in zip(steps, res.trace):
        slices = group_slices(group_of, b.shape[1])
        want = tensor_pooled_objective(w, xc, slices, slope, rec.beta_raw, yc, level)
        assert rec.objective == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_one_moment_pass_over_each_kernel_matrix(monkeypatch, use_workers):
    panel, spec = _panel_two_groups()
    # per iteration: the full kernel matrix and the (start, length) of each
    # row block summed against it
    iterations, row_builds = [], []
    kernel_moments, weighted_sums = groupfit._kernel_moments, groupfit._weighted_sums
    moment_rows = groupfit._moment_rows

    def moments_spy(v, h, rows):
        # fit holds the BLAS pin, so these are the bytes of the pass's blocks
        iterations.append((expanded_kernel(v, h, groupfit._KERNEL_BLOCK_ROWS), []))
        return kernel_moments(v, h, rows)

    def sums_spy(w, rows, out=None):
        # the moment sums, not an exponent product, a surface projection or a
        # backfit smoother
        if any(rows is built for built in row_builds):
            full, blocks = iterations[-1]
            # blocks arrive in any order: find each one's rows of the full
            # kernel by content; it must equal exactly one run of them
            starts = [int(i) for i in np.flatnonzero((full == w[0]).all(axis=1))
                      if np.array_equal(full[i : i + len(w)], w)]
            assert len(starts) == 1
            blocks.append((starts[0], len(w)))
        return weighted_sums(w, rows, out=out)

    def rows_spy(cols):
        row_builds.append(moment_rows(cols))
        return row_builds[-1]

    use_workers(groupfit._KERNEL_MAX_WORKERS)
    monkeypatch.setattr(groupfit, "_kernel_moments", moments_spy)
    monkeypatch.setattr(groupfit, "_weighted_sums", sums_spy)
    monkeypatch.setattr(groupfit, "_moment_rows", rows_spy)
    res = fit(panel, spec, FitConfig(max_iter=3))
    assert len(iterations) == res.iterations == 3
    for full, blocks in iterations:
        # the blocks, in row order, cover the kernel rows [0, T) exactly once
        covered = 0
        for start, length in sorted(blocks):
            assert start == covered
            covered += length
        assert covered == len(full) == panel.n_periods
        assert max(length for _, length in blocks) <= groupfit._KERNEL_BLOCK_ROWS
        assert len(blocks) == -(-panel.n_periods // groupfit._KERNEL_BLOCK_ROWS)
    assert len(row_builds) == 1  # the moment rows are built before the loop


def test_kernel_moment_workers_are_capped_and_include_the_caller(monkeypatch, use_workers):
    rng = np.random.default_rng(3)
    t = 20 * groupfit._KERNEL_BLOCK_ROWS
    v, h = rng.normal(size=(t, 2)), np.array([0.5, 0.7])
    rows = groupfit._moment_rows(rng.normal(size=(t, 2)))
    weighted_sums = groupfit._weighted_sums
    for cores, most in ((1, 1), (3, 3), (64, groupfit._KERNEL_MAX_WORKERS)):
        seen, live = set(), []

        def sums_spy(w, rows, out=None):
            seen.add(threading.get_ident())
            live.append(threading.active_count())
            return weighted_sums(w, rows, out=out)

        use_workers(cores)
        monkeypatch.setattr(groupfit, "_weighted_sums", sums_spy)
        before = threading.active_count()
        groupfit._kernel_moments(v, h, rows)
        assert len(seen) <= most
        assert max(live) <= before + most - 1
        assert threading.active_count() == before
        if cores == 1:
            assert seen == {threading.get_ident()}


def test_each_block_is_summed_once_under_rapid_thread_switches(monkeypatch, use_workers):
    rng = np.random.default_rng(4)
    t = 300
    v, h = rng.normal(size=(t, 2)), np.array([0.5, 0.7])
    rows = groupfit._moment_rows(rng.normal(size=(t, 2)))
    # one-row blocks, more workers than cores, a thread switch every microsecond
    monkeypatch.setattr(groupfit, "_KERNEL_BLOCK_ROWS", 1)
    use_workers(1)
    with _pool.one_blas_thread():
        want = groupfit._kernel_moments(v, h, rows)
    use_workers(groupfit._KERNEL_MAX_WORKERS)
    weighted_sums, summed = groupfit._weighted_sums, []

    def sums_spy(w, moment_rows, out=None):
        if moment_rows is rows:  # a block's moment sums, not its exponent product
            summed.append(len(w))
        return weighted_sums(w, moment_rows, out=out)

    monkeypatch.setattr(groupfit, "_weighted_sums", sums_spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _pool.one_blas_thread():
            got = groupfit._kernel_moments(v, h, rows)
    finally:
        sys.setswitchinterval(interval)
    assert len(summed) == t
    np.testing.assert_array_equal(got, want)


def test_iteration_step_peak_memory_is_below_one_kernel_matrix(monkeypatch, use_workers):
    # T = 2000: the whole T×T weight matrix would take 32 MB
    rng = np.random.default_rng(9)
    t, sizes = 2000, (3, 2)
    x = rng.normal(size=(t, sum(sizes)))
    slices = [slice(0, 3), slice(3, 5)]
    beta = rng.normal(size=sum(sizes))
    v = np.column_stack([x[:, sl] @ beta[sl] for sl in slices])
    y = np.sin(v).sum(axis=1) + 0.3 * rng.normal(size=t)
    args = step_inputs(x, slices, y, beta, groupfit._bandwidths(v))
    # at this machine's worker count, then at the cap (one 1 MB buffer each)
    for workers in (None, groupfit._KERNEL_MAX_WORKERS):
        if workers is not None:
            use_workers(workers)
        tracemalloc.start()
        try:
            groupfit._iteration_step(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t * t * 8


def test_fit_is_invariant_to_shifting_group_columns():
    panel, spec = _panel_two_groups()
    shifted = panel.values.copy()
    shifted[:, 1:] += 1e4
    base = fit(panel, spec)
    moved = fit(TimeSeriesPanel(shifted, panel.labels), spec)
    assert moved.iterations == base.iterations
    for b_moved, b_base in zip(moved.beta, base.beta):
        np.testing.assert_allclose(b_moved, b_base, rtol=0.0, atol=1e-9)


def test_peak_memory_does_not_grow_with_coefficients():
    # K = 10 coefficients: a T×T×K tensor alone would take 10 T² doubles
    rng = np.random.default_rng(5)
    t = 300
    x = rng.normal(size=(t, 10))
    y = np.tanh(x[:, :5].sum(axis=1) / 2.0) + np.sin(x[:, 5:].sum(axis=1) / 2.0)
    y = y + 0.1 * rng.normal(size=t)
    panel = TimeSeriesPanel(np.column_stack([y, x]), tuple("y" + "abcdefghij"))
    spec = ModelSpec(response=0, response_label="y",
                     groups=((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)))
    tracemalloc.start()
    try:
        fit(panel, spec, FitConfig(max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the backfit's smoother matrices (one T×T array per group plus a
    # temporary) set the peak, not the iterations' kernel row blocks and T·K²
    # moments; the tensor form peaked near 30 T² doubles here
    assert peak < 5 * t * t * 8


@pytest.mark.parametrize("make", [_panel_two_groups, _panel_fixture], ids=["two_groups", "fixture"])
def test_reports_are_the_same_bytes_at_one_worker_and_at_the_cap(make, monkeypatch, use_workers, tmp_path):
    panel, spec = make()
    reports = []
    for workers in (1, groupfit._KERNEL_MAX_WORKERS):
        use_workers(workers)
        res = fit(panel, spec)
        links_to_csv(res, tmp_path / "links.csv")
        reports.append((json.dumps(fit_to_json_obj(res, spec, panel.labels)),
                        (tmp_path / "links.csv").read_bytes(),
                        res.final_g.tobytes(), res.final_c.tobytes()))
    assert reports[0] == reports[1]


class TestWorkerFailure:
    """A ``MemoryError`` in one block of the kernel-moment pass."""

    @staticmethod
    def fail_on_third_block(monkeypatch):
        """Make the moment sums of the third block summed raise; returns the
        list of blocks summed."""
        weighted_sums, calls, order = groupfit._weighted_sums, [], itertools.count()
        moment_rows, built = groupfit._moment_rows, []

        def rows_spy(cols):
            built.append(moment_rows(cols))
            return built[-1]

        def failing(w, rows, out=None):
            if any(rows is mine for mine in built):  # not an exponent product
                calls.append(len(w))
                if next(order) == 2:  # one atomic step, so exactly one call raises
                    raise MemoryError("Unable to allocate")
            return weighted_sums(w, rows, out=out)

        monkeypatch.setattr(groupfit, "_moment_rows", rows_spy)
        monkeypatch.setattr(groupfit, "_weighted_sums", failing)
        return calls

    def test_fit_raises_it_and_leaves_no_thread(self, monkeypatch, use_workers):
        panel, spec = _panel_fixture()
        # many small blocks, so a worker that went on would be seen
        monkeypatch.setattr(groupfit, "_KERNEL_BLOCK_ROWS", 8)
        use_workers(groupfit._KERNEL_MAX_WORKERS)
        calls = self.fail_on_third_block(monkeypatch)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="Unable to allocate"):
            fit(panel, spec)
        assert threading.active_count() == before
        # after the failure, only blocks already taken were summed
        assert len(calls) <= 3 + groupfit._KERNEL_MAX_WORKERS - 1
        assert len(calls) < -(-panel.n_periods // 8)

    def test_run_reports_numeric_failure_and_writes_nothing(self, monkeypatch, use_workers, tmp_path, capsys):
        use_workers(groupfit._KERNEL_MAX_WORKERS)
        self.fail_on_third_block(monkeypatch)
        out = tmp_path / "o"
        code = main(["run", "--config", str(FIXTURES / "run_config.txt"),
                     "--input", str(FIXTURES / "fixture_panel.csv"), "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "numeric-failure"
        assert payload["message"] == "Unable to allocate"
        assert not out.exists()


class TestPredictRows:
    @pytest.fixture(scope="class")
    def fitted(self):
        panel, spec = _panel_two_groups()
        return panel, spec, fit(panel, spec)

    def test_rows_match_single_calls_bit_for_bit(self, fitted):
        panel, spec, res = fitted
        rng = np.random.default_rng(3)
        far = rng.normal(size=(40, panel.n_series)) * 50.0
        rows = np.vstack([panel.values, far])
        values, flags = predict(res, spec, rows, return_extrapolated=True)
        assert values.shape == flags.shape == (rows.shape[0],)
        assert not flags[: panel.n_periods].any()
        assert flags[panel.n_periods:].any()
        for i, row in enumerate(rows):
            value, flag = predict(res, spec, row, return_extrapolated=True)
            assert value == values[i] and flag == flags[i], i
        np.testing.assert_array_equal(predict(res, spec, rows), values)

    def test_single_row_returns_scalars(self, fitted):
        panel, spec, res = fitted
        value, flag = predict(res, spec, panel.values[0], return_extrapolated=True)
        assert isinstance(value, float) and isinstance(flag, bool)

    def test_bad_shapes_rejected(self, fitted):
        _, spec, res = fitted
        with pytest.raises(ValueError, match="covering"):
            predict(res, spec, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="covering"):
            predict(res, spec, np.zeros((2, 3, 6)))

    def test_explained_variation_calls_predict_once(self, fitted, monkeypatch):
        panel, spec, res = fitted
        calls = []
        original = groupfit.predict

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(groupfit, "predict", counting)
        assert groupfit.explained_variation(res, panel, spec) == res.r_squared
        assert len(calls) == 1


class TestCapsAreReported:
    def test_defaults_report_no_cap(self):
        panel, spec = _panel_sign()
        res = fit(panel, spec)
        assert res.backfit_converged and not res.constraint_solver_capped
        obj = fit_to_json_obj(res, spec, panel.labels)
        assert obj["backfit_converged"] is True
        assert obj["constraint_solver_capped"] is False

    def test_fixture_links_need_no_fallback(self):
        panel, spec = _panel_fixture()
        res = fit(panel, spec)
        assert res.link_fallback_rows == (0, 0)
        assert fit_to_json_obj(res, spec, panel.labels)["link_fallback_rows"] == [0, 0]

    def test_backfit_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(groupfit, "_BACKFIT_MAX_SWEEPS", 1)
        panel, spec = _panel_singletons()
        res = fit(panel, spec)
        assert not res.backfit_converged
        assert fit_to_json_obj(res, spec, panel.labels)["backfit_converged"] is False

    def test_active_set_step_cap(self, monkeypatch):
        # the unconstrained solution violates a sign, so one step cannot finish
        monkeypatch.setattr(groupfit, "_ACTIVE_SET_STEPS_PER_COEF", 0)
        monkeypatch.setattr(groupfit, "_ACTIVE_SET_EXTRA_STEPS", 1)
        g = np.array([[2.0, 1.8], [1.8, 2.0]])
        c = np.array([1.0, -0.5])
        *_, capped = groupfit._sign_constrained_solve(
            g, c, np.array([1.0, 1.0]), np.array([True, True]), 0.0
        )
        assert capped
        panel, spec = _panel_sign()
        res = fit(panel, spec)
        assert res.constraint_solver_capped
        assert fit_to_json_obj(res, spec, panel.labels)["constraint_solver_capped"] is True


_THREAD_SCRIPT = """
import numpy as np
from covclust.groupfit import fit
from covclust.panel import TimeSeriesPanel
from covclust.pipeline import ModelSpec
rng = np.random.default_rng(2024)
t = 1200
f = rng.normal(size=(t, 2))
x = np.column_stack([f[:, :1] + 0.6 * rng.normal(size=(t, 3)),
                     f[:, 1:] + 0.6 * rng.normal(size=(t, 2))])
y = x[:, :3] @ [2.0, 1.0, 1.0] / 3.0 + np.sin(x[:, 3:] @ [1.0, 2.0] / 2.0)
y = y + 0.3 * rng.normal(size=t)
panel = TimeSeriesPanel(np.column_stack([y, x]), ("y", "a", "b", "c", "d", "e"))
res = fit(panel, ModelSpec(response=0, response_label="y", groups=((1, 2, 3), (4, 5))))
parts = [*res.beta, res.final_g, res.final_c, *(v for _, v in res.links),
         np.array([res.r_squared])]
print(res.iterations, " ".join(np.ascontiguousarray(p).tobytes().hex() for p in parts))
"""


def test_fit_bytes_do_not_depend_on_blas_threads():
    src = str(Path(covclust.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
