import numpy as np
import pytest

from covclust.crossval import CvTemplate, select_threshold
from covclust.errors import EmptyScreenError, InternalConsistencyError
from covclust.matrices import SymMatrix
from covclust.panel import TimeSeriesPanel, spearman_matrix
from covclust.pipeline import (
    ModelSpec,
    ScreenResult,
    build_model_spec,
    cluster_backward,
    cluster_forward,
    nz_score,
    rank_by_degree,
    screen,
)
from oracles import count_nonzero_score


def signal_panel(seed, t=600, n_noise=8, rho=None):
    """Two informative predictors plus independent noise columns.

    Returns the panel and the labels of the informative pair.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=t)
    x2 = rng.normal(size=t)
    y = x1 + (rho if rho is not None else 1.0) * x2 + 0.3 * rng.normal(size=t)
    noise = rng.normal(size=(t, n_noise))
    cols = [y, x1, x2] + [noise[:, i] for i in range(n_noise)]
    labels = ["y", "s1", "s2"] + [f"n{i + 1}" for i in range(n_noise)]
    order = rng.permutation(len(cols))
    values = np.column_stack([cols[i] for i in order])
    shuffled = tuple(labels[i] for i in order)
    return TimeSeriesPanel(values, shuffled), ("s1", "s2")


def hand_screen(entries, n_kept, resp_col=None, signs=None):
    """Build a ScreenResult directly from a regularized matrix in screened layout."""
    arr = np.asarray(entries, dtype=float)
    labels = tuple(f"v{i}" for i in range(n_kept)) + ("resp",)
    reg = SymMatrix(arr, labels)
    return ScreenResult(
        threshold=0.1,
        kept=tuple(range(n_kept)),
        regularized=reg,
        response_signs=tuple(signs) if signs else (1,) * n_kept,
        response=n_kept,
        response_label="resp",
        cv=None,
    )


def block_reg(block_sizes, resp=0.5, cross=0.0, link=0.8):
    """Regularized matrix with dense diagonal blocks and a response column."""
    k = sum(block_sizes)
    arr = np.full((k + 1, k + 1), cross)
    start = 0
    for b in block_sizes:
        arr[start : start + b, start : start + b] = link
        start += b
    arr[:, -1] = resp
    arr[-1, :] = resp
    np.fill_diagonal(arr, 1.0)
    return arr


class TestScreen:
    def test_recovers_planted_signals(self):
        hits = 0
        for seed in range(5):
            panel, signal = signal_panel(seed)
            res = screen(panel, "y")
            kept_labels = {panel.labels[k] for k in res.kept}
            if kept_labels == set(signal):
                hits += 1
        assert hits >= 4

    def test_kept_ordered_by_response_magnitude(self):
        panel, _ = signal_panel(3, rho=2.0)  # s2 carries more signal than s1
        res = screen(panel, "y")
        kept_labels = [panel.labels[k] for k in res.kept]
        assert kept_labels[0] == "s2"
        mags = [abs(res.regularized.entries[i, -1]) for i in range(len(res.kept))]
        assert mags == sorted(mags, reverse=True)

    def test_regularized_layout_has_response_last(self):
        panel, _ = signal_panel(4)
        res = screen(panel, "y")
        assert res.regularized.labels[-1] == "y"
        assert res.regularized.dim == len(res.kept) + 1
        assert all(s in (-1, 1) for s in res.response_signs)

    def test_signs_match_correlation_direction(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=500)
        y = -x + 0.2 * rng.normal(size=500)
        z = rng.normal(size=500)
        panel = TimeSeriesPanel(np.column_stack([y, x, z]), ("y", "x", "z"))
        res = screen(panel, "y")
        k = res.kept.index(1)  # column of x
        assert res.response_signs[k] == -1

    def test_empty_screen_reports_threshold_and_best_corr(self):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(rng.normal(size=(300, 5)), tuple("abcde"))
        template = CvTemplate(n_splits=20)
        with pytest.raises(EmptyScreenError) as exc:
            screen(panel, "a", template)
        corr = spearman_matrix(panel)
        cv = select_threshold(panel, template.for_panel(panel, corr), "spearman")
        assert exc.value.threshold == cv.selected
        assert exc.value.max_abs_corr == float(np.max(np.abs(corr.entries[1:, 0])))
        assert exc.value.max_abs_corr < exc.value.threshold

    def test_unknown_response_label(self):
        rng = np.random.default_rng(11)
        panel = TimeSeriesPanel(rng.normal(size=(50, 3)), ("a", "b", "c"))
        with pytest.raises(KeyError):
            screen(panel, "zzz")


class TestNzScore:
    def test_singleton_scores_one(self):
        reg = SymMatrix(np.eye(3), ("a", "b", "c"))
        assert nz_score([1], reg) == 1.0

    def test_disconnected_pair_scores_half(self):
        reg = SymMatrix(np.eye(2), ("a", "b"))
        assert nz_score([0, 1], reg) == 0.5

    def test_dense_block_scores_one(self):
        arr = np.full((3, 3), 0.4)
        np.fill_diagonal(arr, 1.0)
        assert nz_score([0, 1, 2], SymMatrix(arr, ("a", "b", "c"))) == 1.0

    def test_matches_double_loop_on_random_supports(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            support = rng.random((k, k)) < 0.5
            support = support | support.T
            np.fill_diagonal(support, True)
            entries = np.where(support, 0.3, 0.0)
            np.fill_diagonal(entries, 1.0)
            idx = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
            got = nz_score(idx, entries)
            assert got == count_nonzero_score(idx, entries)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            nz_score([], np.eye(2))


class TestRankByDegree:
    def test_orders_by_nonzero_links(self):
        # v0 links to v1 and v2; v1 and v2 link only to v0.
        arr = np.array(
            [
                [1.0, 0.5, 0.5, 0.0, 0.3],
                [0.5, 1.0, 0.0, 0.0, 0.3],
                [0.5, 0.0, 1.0, 0.0, 0.3],
                [0.0, 0.0, 0.0, 1.0, 0.3],
                [0.3, 0.3, 0.3, 0.3, 1.0],
            ]
        )
        res = hand_screen(arr, 4)
        order = rank_by_degree(range(4), res.regularized)
        assert order[0] == 0
        assert order[-1] == 3

    def test_all_diagonal_falls_back_to_response_magnitude(self):
        arr = np.eye(4)
        arr[:, -1] = [0.2, 0.9, 0.5, 1.0]
        arr[-1, :] = arr[:, -1]
        res = hand_screen(arr, 3)
        assert rank_by_degree(range(3), res.regularized) == [1, 2, 0]

    def test_final_tiebreak_is_position(self):
        arr = np.eye(4)
        arr[:, -1] = [0.5, 0.5, 0.5, 1.0]
        arr[-1, :] = arr[:, -1]
        res = hand_screen(arr, 3)
        assert rank_by_degree(range(3), res.regularized) == [0, 1, 2]


class TestClusterForward:
    def test_recovers_exact_blocks(self):
        res = hand_screen(block_reg((3, 2)), 5)
        out = cluster_forward(res)
        assert {frozenset(s) for s in out.sets} == {frozenset({0, 1, 2}), frozenset({3, 4})}
        assert out.scores == (1.0, 1.0)
        assert not out.overlapping

    def test_randomized_block_instances_are_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n_blocks = int(rng.integers(1, 5))
            sizes = tuple(int(rng.integers(1, 5)) for _ in range(n_blocks))
            res = hand_screen(block_reg(sizes), sum(sizes))
            out = cluster_forward(res)
            expected = set()
            start = 0
            for b in sizes:
                expected.add(frozenset(range(start, start + b)))
                start += b
            assert {frozenset(s) for s in out.sets} == expected
            assert all(v == 1.0 for v in out.scores)

    def test_all_diagonal_gives_singletons(self):
        res = hand_screen(np.eye(5), 4)
        out = cluster_forward(res)
        assert {frozenset(s) for s in out.sets} == {frozenset({i}) for i in range(4)}
        assert out.scores == (1.0, 1.0, 1.0, 1.0)

    def test_sets_are_disjoint_and_cover(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            support = rng.random((k + 1, k + 1)) < 0.4
            support = support | support.T
            arr = np.where(support, 0.4, 0.0)
            arr[:, -1] = 0.5
            arr[-1, :] = 0.5
            np.fill_diagonal(arr, 1.0)
            out = cluster_forward(hand_screen(arr, k))
            flat = [v for s in out.sets for v in s]
            assert sorted(flat) == list(range(k))

    def test_admission_log_replays_scores(self):
        rng = np.random.default_rng(15)
        k = 7
        support = rng.random((k + 1, k + 1)) < 0.5
        support = support | support.T
        arr = np.where(support, 0.4, 0.0)
        arr[:, -1] = 0.5
        arr[-1, :] = 0.5
        np.fill_diagonal(arr, 1.0)
        res = hand_screen(arr, k)
        out = cluster_forward(res)
        for s, log in zip(out.sets, out.admissions):
            assert tuple(v for v, _ in log) == s
            for prefix_len, (_, logged) in enumerate(log, start=1):
                assert logged == nz_score(s[:prefix_len], res.regularized)

    def test_scores_match_direct_recount(self):
        rng = np.random.default_rng(16)
        k = 8
        support = rng.random((k + 1, k + 1)) < 0.35
        support = support | support.T
        arr = np.where(support, 0.3, 0.0)
        arr[:, -1] = 0.5
        arr[-1, :] = 0.5
        np.fill_diagonal(arr, 1.0)
        res = hand_screen(arr, k)
        out = cluster_forward(res)
        for s, score in zip(out.sets, out.scores):
            assert score == nz_score(s, res.regularized)


class TestClusterBackward:
    def test_equals_forward_on_block_diagonal(self):
        res = hand_screen(block_reg((3, 2, 2)), 7)
        fwd = cluster_forward(res)
        bwd = cluster_backward(res)
        assert fwd.sets == bwd.sets
        assert fwd.scores == bwd.scores
        assert bwd.overlapping

    def test_bridge_variable_joins_both_sets(self):
        # Two tight pairs {0,1} and {2,3} plus a bridge 4 linked to all four:
        # the bridge's home set forms first and absorbs one pair; the second
        # round re-offers the bridge, which joins without lowering the score.
        k = 5
        arr = np.zeros((k + 1, k + 1))
        arr[0, 1] = arr[1, 0] = 0.8
        arr[2, 3] = arr[3, 2] = 0.8
        for v in range(4):
            arr[4, v] = arr[v, 4] = 0.4
        arr[:, -1] = 0.5
        arr[-1, :] = 0.5
        np.fill_diagonal(arr, 1.0)
        res = hand_screen(arr, k)

        fwd = cluster_forward(res)
        assert {frozenset(s) for s in fwd.sets} == {frozenset({4, 0, 1}), frozenset({2, 3})}

        bwd = cluster_backward(res)
        assert {frozenset(s) for s in bwd.sets} == {frozenset({4, 0, 1}), frozenset({2, 3, 4})}
        homes = [s for s in bwd.sets if 4 in s]
        assert len(homes) == 2  # member of both, home set included

    def test_union_still_covers_kept(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            support = rng.random((k + 1, k + 1)) < 0.4
            support = support | support.T
            arr = np.where(support, 0.4, 0.0)
            arr[:, -1] = 0.5
            arr[-1, :] = 0.5
            np.fill_diagonal(arr, 1.0)
            out = cluster_backward(hand_screen(arr, k))
            assert set().union(*map(set, out.sets)) == set(range(k))


class TestBuildModelSpec:
    def test_combines_screen_and_clusters(self):
        res = hand_screen(block_reg((2, 2)), 4, signs=(1, -1, 1, 1))
        out = cluster_forward(res)
        spec = build_model_spec(res, out)
        assert spec.response == 4
        assert set(spec.sign_constraints) == {0, 1, 2, 3}
        assert spec.sign_constraints[1] == -1
        assert spec.n_coefficients == 4

    def test_rejects_mismatched_cover(self):
        res = hand_screen(block_reg((2, 2)), 4)
        out = cluster_forward(res)
        from covclust.pipeline import ClusterResult

        tampered = ClusterResult(
            sets=out.sets[:1], scores=out.scores[:1], overlapping=False, admissions=out.admissions[:1]
        )
        with pytest.raises(InternalConsistencyError):
            build_model_spec(res, tampered)

    def test_model_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(response=0, response_label="y", groups=((0, 1),))
        with pytest.raises(ValueError):
            ModelSpec(response=5, response_label="y", groups=((1, 1),))
        with pytest.raises(ValueError):
            ModelSpec(response=5, response_label="y", groups=((1, 2),), sign_constraints={1: 7})
        spec = ModelSpec(response=5, response_label="y", groups=((1, 2), (3,)))
        assert spec.n_groups == 2
