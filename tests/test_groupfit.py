import numpy as np
import pytest

from covclust.errors import DegenerateResponseError, InsufficientDataError
from covclust.groupfit import (
    FitConfig,
    GroupwiseFit,
    explained_variation,
    fit,
    fit_to_json_obj,
    kernel_weight,
    links_to_csv,
    predict,
)
from covclust.panel import TimeSeriesPanel
from covclust.pipeline import ModelSpec
from oracles import brute_force_sign_ls

SQRT_2PI = np.sqrt(2.0 * np.pi)


def panel_from(columns, labels):
    return TimeSeriesPanel(np.column_stack(columns), tuple(labels))


def angle_deg(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cosine = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(np.clip(abs(cosine), -1.0, 1.0))))


def linear_fixture(seed=0, t=200, noise=0.0):
    rng = np.random.default_rng(seed)
    beta = np.array([0.6, 0.5, 0.4])
    x = rng.normal(size=(t, 3))
    y = x @ beta + noise * rng.normal(size=t)
    panel = panel_from([y, x[:, 0], x[:, 1], x[:, 2]], ["y", "a", "b", "c"])
    spec = ModelSpec(response=0, response_label="y", groups=((1, 2, 3),))
    return panel, spec, beta / np.linalg.norm(beta)


class TestKernelWeight:
    def test_at_zero(self):
        assert kernel_weight([0.0], [2.0]) == pytest.approx(1.0 / (SQRT_2PI * 2.0), rel=1e-14)

    def test_one_dimensional_numeric(self):
        assert kernel_weight([1.0], [1.0]) == pytest.approx(
            np.exp(-0.5) / SQRT_2PI, rel=1e-14
        )
        assert kernel_weight([1.0], [1.0]) == pytest.approx(0.24197, abs=1e-5)

    def test_symmetric(self):
        u = np.array([0.3, -1.2])
        h = np.array([0.5, 2.0])
        assert kernel_weight(u, h) == kernel_weight(-u, h)

    def test_product_over_dimensions(self):
        u = np.array([0.7, -0.2])
        h = np.array([1.5, 0.8])
        want = kernel_weight([u[0]], [h[0]]) * kernel_weight([u[1]], [h[1]])
        assert kernel_weight(u, h) == pytest.approx(want, rel=1e-14)

    def test_batch_shapes(self):
        u = np.zeros((4, 6, 2))
        out = kernel_weight(u, np.array([1.0, 1.0]))
        assert out.shape == (4, 6)

    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ValueError):
            kernel_weight([0.0], [0.0])
        with pytest.raises(ValueError):
            kernel_weight([0.0], [-1.0])
        with pytest.raises(ValueError):
            kernel_weight([0.0, 0.0], [1.0])


class TestFitConfig:
    def test_validation_of_numeric_knobs(self):
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_iter=0)


@pytest.fixture(scope="module")
def linear_fitted():
    panel, spec, direction = linear_fixture()
    return panel, spec, direction, fit(panel, spec)


class TestNoiselessLinear:

    def test_direction_matches_least_squares(self, linear_fitted):
        panel, spec, direction, res = linear_fitted
        assert res.converged
        assert angle_deg(res.beta[0], direction) < 0.1

    def test_r_squared_is_essentially_one(self, linear_fitted):
        _, _, _, res = linear_fitted
        assert res.r_squared > 0.9999

    def test_training_predictions_reproduce_y(self, linear_fitted):
        panel, spec, _, res = linear_fitted
        y = panel.values[:, 0]
        for i in range(0, 200, 40):
            assert predict(res, spec, panel.values[i]) == pytest.approx(y[i], abs=1e-6)

    def test_link_is_linear_on_its_grid(self, linear_fitted):
        _, _, _, res = linear_fitted
        grid, vals = res.links[0]
        second_diff = np.diff(vals, n=2)
        scale = float(np.max(np.abs(vals)))
        assert np.max(np.abs(second_diff)) < 1e-3 * scale

    def test_unit_norm_and_no_multipliers(self, linear_fitted):
        _, _, _, res = linear_fitted
        assert abs(np.linalg.norm(res.beta[0]) - 1.0) < 1e-12
        np.testing.assert_array_equal(res.lam, np.zeros(3))

    def test_objective_never_increases(self, linear_fitted):
        _, _, _, res = linear_fitted
        assert not any(rec.objective_increased for rec in res.trace)
        objectives = [rec.objective for rec in res.trace]
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev + 1e-10 * max(1.0, abs(prev))

    def test_no_ridge_needed(self, linear_fitted):
        _, _, _, res = linear_fitted
        assert not res.ridge_flagged


@pytest.fixture(scope="module")
def sign_fitted():
    # x2 rides on x1 so strongly that it correlates positively with y
    # even though its own contribution is negative: the unconstrained
    # pooled solution gives zeta_2 < 0, the constraint forces it to 0.
    rng = np.random.default_rng(42)
    t = 300
    x1 = rng.normal(size=t)
    x2 = 0.9 * x1 + np.sqrt(1.0 - 0.81) * rng.normal(size=t)
    y = x1 - 0.1 * x2 + 0.05 * rng.normal(size=t)
    panel = panel_from([y, x1, x2], ["y", "x1", "x2"])
    spec = ModelSpec(
        response=0,
        response_label="y",
        groups=((1, 2),),
        sign_constraints={1: 1, 2: 1},
    )
    return panel, spec, fit(panel, spec)


class TestSignConstraintActivation:

    def test_constrained_coefficient_is_exactly_zero(self, sign_fitted):
        _, _, res = sign_fitted
        assert res.converged
        assert res.beta[0][1] == 0.0
        assert res.beta[0][0] == 1.0  # unit norm of (b, 0) with b > 0

    def test_constraint_was_binding(self, sign_fitted):
        _, _, res = sign_fitted
        last = res.trace[-1]
        assert last.zeta[1] < 0.0  # unconstrained solution violates the sign
        assert last.lam[1] > 0.0

    def test_complementary_slackness_exact(self, sign_fitted):
        _, _, res = sign_fitted
        for rec in res.trace:
            np.testing.assert_array_equal(rec.lam * rec.beta_raw, np.zeros(2))
            assert np.all(rec.lam >= 0.0)

    def test_multiplier_zero_when_signs_agree(self, sign_fitted):
        _, _, res = sign_fitted
        for rec in res.trace:
            for k, sign in enumerate((1, 1)):
                if np.sign(rec.zeta[k]) == sign:
                    assert rec.lam[k] == 0.0

    def test_kkt_identity_from_stored_normal_equations(self, sign_fitted):
        _, _, res = sign_fitted
        last = res.trace[-1]
        grad = res.final_g @ last.beta_raw - res.final_c
        np.testing.assert_allclose(grad, last.lam * np.array([1.0, 1.0]), atol=1e-8)

    def test_matches_brute_force_enumeration(self, sign_fitted):
        _, _, res = sign_fitted
        last = res.trace[-1]
        oracle = brute_force_sign_ls(
            res.final_g, res.final_c, np.array([1.0, 1.0]), np.array([True, True])
        )
        np.testing.assert_allclose(last.beta_raw, oracle, atol=1e-8)


@pytest.fixture(scope="module")
def singleton_fitted():
    rng = np.random.default_rng(7)
    t = 400
    x1 = rng.uniform(-2, 2, size=t)
    x2 = rng.uniform(-2, 2, size=t)
    y = x1**2 + np.sin(2.0 * x2) + 0.05 * rng.normal(size=t)
    panel = panel_from([y, x1, x2], ["y", "x1", "x2"])
    spec = ModelSpec(response=0, response_label="y", groups=((1,), (2,)))
    return panel, spec, fit(panel, spec)


class TestSingletonGroups:

    def test_coefficients_are_exactly_one(self, singleton_fitted):
        _, _, res = singleton_fitted
        assert res.beta[0][0] == 1.0
        assert res.beta[1][0] == 1.0

    def test_predict_is_sum_of_links(self, singleton_fitted):
        _, spec, res = singleton_fitted
        x = np.array([0.0, 0.4, -0.8])
        total = 0.0
        for s, (grid, vals) in enumerate(res.links):
            total += float(np.interp(x[1 + s], grid, vals))
        assert predict(res, spec, x) == pytest.approx(total, rel=1e-12)

    def test_captures_both_shapes(self, singleton_fitted):
        panel, spec, res = singleton_fitted
        assert res.r_squared > 0.95
        grid1, vals1 = res.links[0]
        # even component: symmetric values at symmetric grid points
        left = np.interp(-1.5, grid1, vals1)
        right = np.interp(1.5, grid1, vals1)
        assert left == pytest.approx(right, abs=0.2)


class TestTwoGroupRecovery:
    def test_single_seed_smoke(self):
        rng = np.random.default_rng(11)
        t = 500
        b1 = np.array([2.0, 1.0, 1.0]) / np.linalg.norm([2.0, 1.0, 1.0])
        b2 = np.array([1.0, 2.0]) / np.linalg.norm([1.0, 2.0])
        x = rng.normal(size=(t, 5))
        y = (x[:, :3] @ b1) ** 2 + np.sin(x[:, 3:] @ b2) + 0.1 * rng.normal(size=t)
        panel = TimeSeriesPanel(
            np.column_stack([y, x]), ("y", "a1", "a2", "a3", "b1", "b2")
        )
        spec = ModelSpec(response=0, response_label="y", groups=((1, 2, 3), (4, 5)))
        res = fit(panel, spec)
        # the squared link makes the first direction identified only up to sign
        assert angle_deg(res.beta[0], b1) < 15.0
        assert angle_deg(res.beta[1], b2) < 15.0
        assert res.r_squared > 0.8


@pytest.fixture(scope="module")
def predict_fitted():
    panel, spec, _ = linear_fixture()
    return panel, spec, fit(panel, spec)


class TestPredict:

    def test_refuses_unconverged_without_override(self):
        panel, spec, _ = linear_fixture()
        res = fit(panel, spec, FitConfig(max_iter=1, tolerance=1e-15))
        assert not res.converged
        with pytest.raises(ValueError, match="converge"):
            predict(res, spec, panel.values[0])
        predict(res, spec, panel.values[0], allow_unconverged=True)

    def test_extrapolation_flagged_and_linear(self, predict_fitted):
        panel, spec, res = predict_fitted
        grid, vals = res.links[0]
        big = np.zeros(4)
        big[1] = 50.0  # index far beyond the observed range
        val, extrapolated = predict(res, spec, big, return_extrapolated=True)
        assert extrapolated
        slope = (vals[-1] - vals[-2]) / (grid[-1] - grid[-2])
        v = 50.0 * res.beta[0][0]
        if v > grid[-1]:
            assert val == pytest.approx(vals[-1] + slope * (v - grid[-1]), rel=1e-12)

    def test_interior_point_not_flagged(self, predict_fitted):
        panel, spec, res = predict_fitted
        _, extrapolated = predict(res, spec, panel.values[3], return_extrapolated=True)
        assert not extrapolated

    def test_dimension_mismatch_rejected(self, predict_fitted):
        _, spec, res = predict_fitted
        with pytest.raises(ValueError, match="covering"):
            predict(res, spec, np.zeros(2))

    def test_scale_equivariance(self, predict_fitted):
        panel, spec, res = predict_fitted
        c = 3.7
        scaled = GroupwiseFit(
            beta=(res.beta[0] * c,),
            links=tuple((grid * c, vals.copy()) for grid, vals in res.links),
            lam=res.lam,
            iterations=res.iterations,
            converged=res.converged,
            r_squared=res.r_squared,
            trace=res.trace,
            ridge_flagged=res.ridge_flagged,
            bandwidths=res.bandwidths,
            final_g=res.final_g,
            final_c=res.final_c,
        )
        for i in (0, 17, 63):
            want = predict(res, spec, panel.values[i])
            got = predict(scaled, spec, panel.values[i])
            assert got == pytest.approx(want, rel=1e-9)


class TestDegenerateCases:
    def test_needs_more_rows_than_coefficients(self):
        rng = np.random.default_rng(13)
        panel = TimeSeriesPanel(rng.normal(size=(4, 5)), tuple("yabcd"))
        spec = ModelSpec(response=0, response_label="y", groups=((1, 2), (3, 4)))
        with pytest.raises(InsufficientDataError):
            fit(panel, spec)

    def test_constant_response_is_degenerate(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 2))
        panel = panel_from([np.ones(50), x[:, 0], x[:, 1]], ["y", "a", "b"])
        spec = ModelSpec(response=0, response_label="y", groups=((1, 2),))
        with pytest.raises(DegenerateResponseError):
            fit(panel, spec)

    def test_unrelated_response_gives_flat_links(self):
        rng = np.random.default_rng(15)
        t = 300
        x = rng.normal(size=(t, 2))
        y = rng.normal(size=t)
        panel = panel_from([y, x[:, 0], x[:, 1]], ["y", "a", "b"])
        spec = ModelSpec(response=0, response_label="y", groups=((1, 2),))
        res = fit(panel, spec)
        preds = [
            predict(res, spec, row, allow_unconverged=True) for row in panel.values
        ]
        assert np.std(preds) < 0.5 * np.std(y)
        assert abs(res.r_squared) < 0.2

    def test_group_column_out_of_range(self):
        rng = np.random.default_rng(16)
        panel = TimeSeriesPanel(rng.normal(size=(30, 3)), ("y", "a", "b"))
        spec = ModelSpec(response=0, response_label="y", groups=((1, 7),))
        with pytest.raises(ValueError, match="out of range"):
            fit(panel, spec)


class TestExplainedVariation:
    def test_perfect_fit_is_one(self):
        panel, spec, _ = linear_fixture()
        res = fit(panel, spec)
        assert explained_variation(res, panel, spec) > 0.9999

    def test_zero_sst_rejected(self):
        panel, spec, _ = linear_fixture()
        res = fit(panel, spec)
        flat = TimeSeriesPanel(
            np.column_stack([np.ones(10), np.arange(10.0), np.ones(10) * 2, np.arange(10.0) ** 2]),
            ("y", "a", "b", "c"),
        )
        with pytest.raises(DegenerateResponseError):
            explained_variation(res, flat, spec)


class TestSerialization:
    def test_json_summary(self):
        panel, spec, _ = linear_fixture()
        res = fit(panel, spec)
        obj = fit_to_json_obj(res, spec, panel.labels)
        assert obj["converged"] is True
        assert obj["groups"][0]["variables"] == ["a", "b", "c"]
        assert len(obj["groups"][0]["beta"]) == 3
        assert obj["r_squared"] == pytest.approx(res.r_squared)

    def test_links_csv(self, tmp_path):
        panel, spec, _ = linear_fixture()
        res = fit(panel, spec)
        path = tmp_path / "links.csv"
        links_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,v,g_hat"
        assert len(lines) == 1 + 100
        assert lines[1].startswith("1,")
