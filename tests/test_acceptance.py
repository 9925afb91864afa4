"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test prints exactly one ``[criterion N] ...: PASS/FAIL`` line and
then asserts, so failures are visible both ways.  Every check uses fixed
seeds and finishes inside its stated runtime budget.
"""

import json
import time
from pathlib import Path

import numpy as np

from oracles import jacobi_eigenvalues, naive_spearman
from rates import frobenius_norm, min_eigenvalue, operator_norm, rate_medians
from covclust.cli import main as cli_main
from covclust.crossval import CvConfig, select_threshold
from covclust.groupfit import FitConfig, fit
from covclust.matrices import SymMatrix, hard_threshold
from covclust.panel import TimeSeriesPanel, spearman_matrix, standardize
from covclust.pipeline import ModelSpec, ScreenResult, cluster_backward, cluster_forward, screen
from covclust.simulate import DependenceSpec, Structure, gen_panel, make_sparse_cov

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sym(entries):
    n = entries.shape[0]
    return SymMatrix(entries, tuple(f"v{i}" for i in range(n)))


def test_c1_threshold_invariants():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = []
    pd_checked = 0
    for i in range(1000):
        j = int(rng.integers(2, 21))
        a = rng.normal(size=(j, j))
        mask = np.triu(rng.random(size=(j, j)) < 0.6)
        mask = mask | mask.T
        m = _sym(((a + a.T) / 2.0) * mask)

        nonzero = np.abs(m.entries[m.entries != 0.0])
        if nonzero.size:
            s_lo = float(np.quantile(nonzero, 0.3))
            s_hi = float(np.quantile(nonzero, 0.7))
        else:
            s_lo, s_hi = 0.1, 0.2
        r_lo = hard_threshold(m, s_lo)
        r_hi = hard_threshold(m, s_hi)

        if not np.array_equal(r_lo.entries, r_lo.entries.T):
            violations.append((i, "symmetry"))
        if np.any((r_hi.entries != 0.0) & (r_lo.entries == 0.0)):
            violations.append((i, "support nesting"))
        if not np.array_equal(hard_threshold(r_lo, s_lo).entries, r_lo.entries):
            violations.append((i, "idempotence"))
        perm = rng.permutation(j)
        permuted = SymMatrix(
            m.entries[np.ix_(perm, perm)], tuple(m.labels[p] for p in perm)
        )
        if not np.array_equal(
            hard_threshold(permuted, s_lo).entries, r_lo.entries[np.ix_(perm, perm)]
        ):
            violations.append((i, "permutation equivariance"))

        noise = rng.normal(size=(j, j)) * 0.05
        pd_m = _sym(np.eye(j) + (noise + noise.T) / 2.0)
        off = np.abs(pd_m.entries[~np.eye(j, dtype=bool)])
        s_pd = float(np.quantile(off, 0.25)) if off.size else 0.01
        thr = hard_threshold(pd_m, s_pd)
        perturbation = operator_norm(thr.entries - pd_m.entries)
        if perturbation < min_eigenvalue(pd_m.entries):
            pd_checked += 1
            if min_eigenvalue(thr.entries) <= 0.0:
                violations.append((i, "PD preservation"))
    elapsed = time.perf_counter() - start
    ok = not violations and pd_checked >= 800 and elapsed < budget
    _report(
        1,
        "threshold invariant suite",
        ok,
        f"1000 matrices, {len(violations)} violations, "
        f"{pd_checked} PD cases in scope, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c2_norms_match_jacobi_oracle():
    budget = 5.0
    tol = 1e-8
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(2, 9))
        a = rng.normal(size=(j, j))
        m = (a + a.T) / 2.0
        ev = jacobi_eigenvalues(m)
        worst = max(
            worst,
            abs(operator_norm(m) - max(abs(ev[0]), abs(ev[-1]))),
            abs(min_eigenvalue(m) - ev[0]),
        )
    elapsed = time.perf_counter() - start
    ok = worst < tol and elapsed < budget
    _report(
        2,
        "norms vs independent eigensolver",
        ok,
        f"200 matrices, worst deviation {worst:.2e} < 1e-8, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c3_spearman_matches_rank_then_pearson():
    budget = 5.0
    tol = 1e-12
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    worst_mono = 0.0
    lifts = (lambda c: np.exp(c), lambda c: c ** 3 + c, lambda c: 2.0 * c + 1.0)
    for i in range(200):
        t = int(rng.integers(8, 31))
        j = int(rng.integers(2, 6))
        while True:
            if i % 2:
                values = rng.integers(0, 4, size=(t, j)).astype(float)  # heavy ties
            else:
                values = rng.normal(size=(t, j))
            if not np.any(np.all(values == values[0], axis=0)):
                break
        panel = TimeSeriesPanel(values, tuple(f"v{k}" for k in range(j)))
        got = spearman_matrix(panel).entries
        worst = max(worst, float(np.max(np.abs(got - naive_spearman(values)))))
        if i % 4 == 0:
            lifted = np.column_stack(
                [lifts[k % len(lifts)](values[:, k]) for k in range(j)]
            )
            lifted_got = spearman_matrix(
                TimeSeriesPanel(lifted, panel.labels)
            ).entries
            worst_mono = max(worst_mono, float(np.max(np.abs(lifted_got - got))))
    elapsed = time.perf_counter() - start
    ok = worst < tol and worst_mono < tol and elapsed < budget
    _report(
        3,
        "rank correlation vs explicit oracle",
        ok,
        f"200 panels incl. ties, worst {worst:.2e}, monotone-lift worst {worst_mono:.2e} "
        f"< 1e-12, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c4_cv_threshold_near_best_grid_point():
    budget = 300.0
    start = time.perf_counter()
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        model = make_sparse_cov(30, Structure.random_sparse(0.1), seed=seed)
        panel = gen_panel(model, DependenceSpec.iid(), 300, seed=seed)
        # a long first segment keeps the selected threshold matched to the
        # full-sample noise scale instead of a much noisier subsample's
        cfg = CvConfig(t1=240, t2=48, grid_size=50, n_splits=30, seed=seed)
        res = select_threshold(panel, cfg, "covariance")
        sig_hat = res.estimate
        errors = np.array(
            [
                frobenius_norm(hard_threshold(sig_hat, g).entries - model.sigma.entries)
                for g in res.grid
            ]
        )
        achieved = errors[list(res.grid).index(res.selected)]
        if achieved <= 1.3 * errors.min():
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 45 and elapsed < budget
    _report(
        4,
        "cross-validated threshold quality",
        ok,
        f"true error within 1.3x of best grid point in {hits}/{n_seeds} seeds "
        f"(need 45), {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c5_error_rate_scaling():
    budget = 600.0
    start = time.perf_counter()
    model = make_sparse_cov(30, Structure.random_sparse(0.1), seed=1)

    iid = rate_medians(model, DependenceSpec.iid(), [150, 600], 20, seed=1)
    ratio = iid[150] / iid[600]

    medians = []
    for m in (0, 2, 8):
        medians.append(rate_medians(model, DependenceSpec.m_dependent(m), [500], 20, seed=2)[500])
    nondecreasing = medians[0] <= medians[1] <= medians[2]

    elapsed = time.perf_counter() - start
    ok = 1.4 <= ratio <= 3.2 and nondecreasing and elapsed < budget
    _report(
        5,
        "error scaling in sample size and dependence",
        ok,
        f"median op-error ratio T vs 4T = {ratio:.2f} in [1.4, 3.2]; "
        f"medians across m=0,2,8: {', '.join(f'{v:.3f}' for v in medians)} "
        f"nondecreasing={nondecreasing}; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c6_screening_recovers_known_support():
    budget = 180.0
    start = time.perf_counter()
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        t = 600
        x1 = rng.normal(size=t)
        x2 = rng.normal(size=t)
        y = x1 + x2 + 0.3 * rng.normal(size=t)
        noise = rng.normal(size=(t, 18))
        cols = [y, x1, x2] + [noise[:, i] for i in range(18)]
        labels = ["y", "s1", "s2"] + [f"n{i + 1}" for i in range(18)]
        order = rng.permutation(len(cols))
        panel = TimeSeriesPanel(
            np.column_stack([cols[i] for i in order]),
            tuple(labels[i] for i in order),
        )
        scr = screen(panel, "y", CvConfig(seed=seed))
        if {panel.labels[k] for k in scr.kept} == {"s1", "s2"}:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 45 and elapsed < budget
    _report(
        6,
        "screening recovery on known support",
        ok,
        f"kept == truth with no false keeps in {hits}/{n_seeds} seeds (need 45), "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def _screen_stub(entries):
    arr = np.asarray(entries, dtype=float)
    k = arr.shape[0] - 1
    labels = tuple(f"v{i}" for i in range(k)) + ("resp",)
    return ScreenResult(
        threshold=0.1,
        kept=tuple(range(k)),
        regularized=SymMatrix(arr, labels),
        response_signs=(1,) * k,
        response=k,
        response_label="resp",
        cv=None,
    )


def test_c7_clustering_exact_on_blocks():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    failures = 0
    for _ in range(200):
        n_blocks = int(rng.integers(1, 13))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        n = sum(sizes)
        arr = np.zeros((n + 1, n + 1))
        np.fill_diagonal(arr, 1.0)
        blocks = []
        pos = 0
        for sz in sizes:
            idx = range(pos, pos + sz)
            for a in idx:
                for b in idx:
                    if a < b:
                        arr[a, b] = arr[b, a] = rng.uniform(0.3, 0.9)
            blocks.append(frozenset(idx))
            pos += sz
        arr[:n, n] = arr[n, :n] = rng.uniform(0.2, 0.9, size=n)
        stub = _screen_stub(arr)
        fwd = cluster_forward(stub)
        bwd = cluster_backward(stub)
        if {frozenset(s) for s in fwd.sets} != set(blocks):
            failures += 1
        elif bwd.sets != fwd.sets:
            failures += 1

    # designed bridge: tight pairs {0,1} and {2,3}, variable 4 linked to all
    arr = np.zeros((6, 6))
    arr[0, 1] = arr[1, 0] = 0.8
    arr[2, 3] = arr[3, 2] = 0.8
    for v in range(4):
        arr[4, v] = arr[v, 4] = 0.4
    arr[:, -1] = arr[-1, :] = 0.5
    np.fill_diagonal(arr, 1.0)
    stub = _screen_stub(arr)
    bwd = cluster_backward(stub)
    bridge_ok = {frozenset(s) for s in bwd.sets} == {
        frozenset({0, 1, 4}),
        frozenset({2, 3, 4}),
    }

    elapsed = time.perf_counter() - start
    ok = failures == 0 and bridge_ok and elapsed < budget
    _report(
        7,
        "clustering exactness on block structure",
        ok,
        f"200 block instances, {failures} mismatches; bridge overlap as designed: "
        f"{bridge_ok}; {elapsed:.1f}s < {budget:.0f}s",
    )


def _angle_deg(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cosine = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(np.clip(abs(cosine), -1.0, 1.0))))


def test_c8_estimator_recovery():
    budget = 300.0
    start = time.perf_counter()

    # noiseless linear, single group: agree with the least-squares direction
    rng = np.random.default_rng(808)
    beta = np.array([0.6, 0.5, 0.4])
    x = rng.normal(size=(200, 3))
    y = x @ beta
    panel = TimeSeriesPanel(
        np.column_stack([y, x]), ("y", "a", "b", "c")
    )
    res = fit(panel, ModelSpec(response=0, response_label="y", groups=((1, 2, 3),)))
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    linear_angle = _angle_deg(res.beta[0], ols)
    linear_ok = linear_angle < 0.1 and res.r_squared > 0.9999

    # two nonlinear groups, 25 seeds: both directions within ten degrees
    b1 = np.array([2.0, 1.0, 1.0]) / np.sqrt(6.0)
    b2 = np.array([1.0, 2.0]) / np.sqrt(5.0)
    two_group_hits = 0
    for seed in range(25):
        srng = np.random.default_rng(seed)
        xs = srng.standard_normal((500, 5))
        ys = (xs[:, :3] @ b1) ** 2 + np.sin(xs[:, 3:] @ b2)
        ys = ys + 0.1 * srng.standard_normal(500)
        p = standardize(
            TimeSeriesPanel(
                np.column_stack([ys, xs]), ("y", "x1", "x2", "x3", "x4", "x5")
            )
        )
        spec = ModelSpec(response=0, response_label="y", groups=((1, 2, 3), (4, 5)))
        r = fit(p, spec, FitConfig(tolerance=1e-6, max_iter=200))
        if _angle_deg(r.beta[0], b1) < 10.0 and _angle_deg(r.beta[1], b2) < 10.0:
            two_group_hits += 1
    two_group_ok = two_group_hits >= 20

    # constructed sign violator: exact zero, complementary slackness, finite run
    crng = np.random.default_rng(42)
    t = 300
    x1 = crng.normal(size=t)
    x2 = 0.9 * x1 + np.sqrt(1.0 - 0.81) * crng.normal(size=t)
    yv = x1 - 0.1 * x2 + 0.05 * crng.normal(size=t)
    sign_panel = TimeSeriesPanel(np.column_stack([yv, x1, x2]), ("y", "x1", "x2"))
    sign_spec = ModelSpec(
        response=0, response_label="y", groups=((1, 2),), sign_constraints={1: 1, 2: 1}
    )
    sres = fit(sign_panel, sign_spec, FitConfig(tolerance=1e-6, max_iter=200))
    slack = max(
        float(np.max(np.abs(rec.lam * rec.beta_raw))) for rec in sres.trace
    )
    sign_ok = (
        sres.beta[0][1] == 0.0
        and slack <= 1e-10
        and sres.converged
        and 0 < sres.iterations < 200
    )

    elapsed = time.perf_counter() - start
    ok = linear_ok and two_group_ok and sign_ok and elapsed < budget
    _report(
        8,
        "groupwise index estimator recovery",
        ok,
        f"linear angle {linear_angle:.4f} deg, r2 {res.r_squared:.6f}; "
        f"two-group within 10 deg in {two_group_hits}/25 seeds (need 20); "
        f"violator coef exactly zero: {sres.beta[0][1] == 0.0}, "
        f"slackness {slack:.1e} <= 1e-10, iterations {sres.iterations}; "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_c9_end_to_end_determinism(tmp_path):
    budget = 60.0
    start = time.perf_counter()
    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "run",
                "--config",
                str(FIXTURES / "run_config.txt"),
                "--input",
                str(FIXTURES / "fixture_panel.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    elapsed = time.perf_counter() - start
    identical = reports[0] == reports[1]
    r2 = json.loads(reports[0])["r_squared"]
    ok = identical and elapsed < budget
    _report(
        9,
        "end-to-end determinism",
        ok,
        f"two runs byte-identical: {identical} (r_squared {r2:.4f}), "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )
