"""Property tests of the threshold scorer, thresholding, grouping and the sign-constrained step."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covclust.crossval import _grid_losses
from covclust import groupfit
from covclust.groupfit import _sign_constrained_solve
from covclust.matrices import SymMatrix, hard_threshold
from covclust.pipeline import ScreenResult, cluster_backward, cluster_forward
from oracles import count_nonzero_score, direct_threshold_loss

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _symmetric(rng, j, ties):
    # Rounding to one decimal gives exact ties in |entry| and exact zeros.
    a = rng.normal(size=(j, j)) * 10.0 ** rng.uniform(-3, 3)
    a = a + a.T
    return np.round(a, 1) if ties else a


@st.composite
def symmetric_pairs_and_grids(draw):
    # Cells come from a drawn seed, so a failure shrinks over a few integers.
    j = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())
    e1 = _symmetric(rng, j, ties)
    e2 = _symmetric(rng, j, ties)
    if draw(st.booleans()):
        e2 = e1.copy()
    mags = np.abs(e1).ravel()
    n_grid = draw(st.integers(1, 10))
    # Grid points on entry magnitudes, between them and past the largest one.
    picks = rng.choice(mags, size=n_grid)
    free = rng.uniform(0.0, 1.2 * mags.max() + 1e-12, size=n_grid)
    grid = np.sort(np.where(rng.random(n_grid) < 0.5, picks, free))
    if draw(st.booleans()):
        grid[0] = 0.0
    return e1, e2, tuple(float(g) for g in grid)


class TestGridScorer:
    @SETTINGS
    @given(symmetric_pairs_and_grids())
    def test_matches_direct_loss(self, case):
        e1, e2, grid = case
        got = _grid_losses(e1, e2, grid)
        want = np.array([direct_threshold_loss(e1, e2, s) for s in grid])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @SETTINGS
    @given(symmetric_pairs_and_grids())
    def test_same_kept_set_gives_same_float(self, case):
        e1, e2, grid = case
        got = _grid_losses(e1, e2, grid)
        kept = [np.abs(e1) >= s for s in grid]
        for a in range(len(grid)):
            for b in range(a + 1, len(grid)):
                if np.array_equal(kept[a], kept[b]):
                    assert got[a] == got[b]


@st.composite
def matrices_and_levels(draw):
    j = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = SymMatrix(_symmetric(rng, j, draw(st.booleans())), tuple(f"v{i}" for i in range(j)))
    mags = np.abs(m.entries).ravel()
    # levels on entry magnitudes or anywhere up to past the largest one
    picks = rng.choice(mags, size=2)
    levels = np.sort(np.where(rng.random(2) < 0.5, picks, rng.uniform(0, mags.max() + 1, 2)))
    return m, float(levels[0]), float(levels[1])


class TestHardThreshold:
    @SETTINGS
    @given(matrices_and_levels())
    def test_idempotent(self, case):
        m, s, _ = case
        once = hard_threshold(m, s)
        np.testing.assert_array_equal(hard_threshold(once, s).entries, once.entries)

    @SETTINGS
    @given(matrices_and_levels())
    def test_support_shrinks_as_threshold_grows(self, case):
        m, low, high = case
        a = hard_threshold(m, low).entries
        b = hard_threshold(m, high).entries
        assert not np.any((b != 0) & (a == 0))
        # surviving entries are the original values, never rescaled
        np.testing.assert_array_equal(b[b != 0], m.entries[b != 0])
        np.testing.assert_array_equal(hard_threshold(m, 0.0).entries, m.entries)


@st.composite
def screened_layouts(draw):
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    links = np.triu(rng.random((k + 1, k + 1)) < density, 1)
    entries = np.where(links | links.T, 0.5, 0.0)
    np.fill_diagonal(entries, 1.0)
    kept = tuple(int(v) for v in rng.permutation(3 * k)[:k])
    reg = SymMatrix(entries, tuple(f"v{i}" for i in range(k)) + ("resp",))
    return ScreenResult(
        threshold=0.1,
        kept=kept,
        regularized=reg,
        response_signs=(1,) * k,
        response=3 * k,
        response_label="resp",
        cv=None,
    )


class TestGreedyAdmissions:
    @SETTINGS
    @given(screened_layouts(), st.sampled_from([cluster_forward, cluster_backward]))
    def test_replayed_admissions_never_lower_the_score(self, screen_result, cluster):
        res = cluster(screen_result)
        position = {v: p for p, v in enumerate(screen_result.kept)}
        for members, log, final in zip(res.sets, res.admissions, res.scores):
            assert tuple(v for v, _ in log) == members
            prefix, previous = [], 0.0
            for v, score in log:
                prefix.append(position[v])
                assert score == count_nonzero_score(prefix, screen_result.regularized.entries)
                assert score >= previous
                previous = score
            assert final == previous


@st.composite
def constrained_problems(draw):
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A shared factor correlates the coordinates, so that pinning one to zero
    # can turn another's multiplier negative and force a release step.
    b = rng.normal(size=(k, k))
    f = rng.normal(size=(k, 2))
    g = b @ b.T / k + 0.1 * np.eye(k) + rng.uniform(0.0, 5.0) * (f @ f.T)
    g = (g + g.T) / 2.0
    c = rng.normal(size=k) * 10.0 ** rng.uniform(-2, 2)
    d = rng.choice([-1.0, 1.0], size=k)
    mask = rng.random(k) < draw(st.floats(0.0, 1.0))
    return g, c, d, mask


class TestSignConstrainedKkt:
    @SETTINGS
    @given(constrained_problems())
    @example(
        (
            # the active set has to release a coordinate on the way
            np.array([[0.51, -0.78, -0.21], [-0.78, 1.82, 0.5], [-0.21, 0.5, 1.97]]),
            np.array([0.1, -1.3, -0.9]),
            np.ones(3),
            np.ones(3, dtype=bool),
        )
    )
    def test_kkt_conditions_hold(self, problem):
        g, c, d, mask = problem
        beta, lam, _, used_ridge, capped = _sign_constrained_solve(g, c, d, mask, 1e-8)
        assert not capped and not used_ridge
        assert np.all(lam >= 0.0)
        assert np.all(lam * beta == 0.0)
        assert np.all(lam[~mask] == 0.0)
        assert np.all(d[mask] * beta[mask] >= 0.0)
        scale = 1.0 + np.max(np.abs(c))
        np.testing.assert_allclose(g @ beta - c, lam * d, rtol=0.0, atol=1e-9 * scale)


@st.composite
def iteration_steps(draw):
    """``_iteration_step`` arguments for 1 to 12 coefficients in 1 to 4 groups."""
    n_groups = draw(st.integers(1, 4))
    k = draw(st.integers(n_groups, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.choice(np.arange(1, k), n_groups - 1, replace=False))
    group_of = np.searchsorted(cuts, np.arange(k), side="right")
    t = int(rng.integers(20, 80))
    xc = rng.normal(size=(t, k)) * rng.uniform(0.5, 3.0, size=k)
    xc -= xc.mean(axis=0)
    yc = np.sin(xc.sum(axis=1)) + 0.3 * rng.normal(size=t)
    yc -= yc.mean()
    b = np.zeros((k, n_groups))
    b[np.arange(k), group_of] = rng.normal(size=k)
    vc = np.einsum("tk,ks->ts", xc, b)
    rows = groupfit._moment_rows(np.column_stack([xc, yc]))
    return vc, groupfit._bandwidths(vc), rows, xc, b, group_of


@SETTINGS
@given(iteration_steps())
def test_pooled_g_is_exactly_symmetric_without_averaging(args):
    # G's (k, l) and (l, k) entries sum the same products in the same order
    g = groupfit._iteration_step(*args)[2]
    np.testing.assert_array_equal(g, g.T)
