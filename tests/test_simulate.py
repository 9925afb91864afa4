import numpy as np
import pytest

from covclust import simulate
from covclust.errors import InfeasibleDependenceError, NotApplicableError
from covclust.matrices import (
    SymMatrix,
    UniformityParams,
    min_eigenvalue,
    uniformity_diagnostics,
)
from covclust.panel import sample_covariance
from covclust.simulate import (
    DependenceSpec,
    SparseCovModel,
    Structure,
    fractional_cover_size,
    gen_panel,
    make_sparse_cov,
    random_var1,
    rate_experiment,
    rate_report_to_json_obj,
)


class TestStructure:
    def test_diagonal_gives_identity(self):
        model = make_sparse_cov(5, Structure.diagonal(), seed=1)
        np.testing.assert_array_equal(model.sigma.entries, np.eye(5))

    def test_block_support_is_exact(self):
        model = make_sparse_cov(7, Structure.block((3, 2, 2)), seed=2)
        e = model.sigma.entries
        mask = np.zeros((7, 7), dtype=bool)
        for lo, hi in [(0, 3), (3, 5), (5, 7)]:
            mask[lo:hi, lo:hi] = True
        assert np.all(e[~mask] == 0.0)
        assert np.all(e[mask] != 0.0)

    def test_block_sizes_must_sum(self):
        with pytest.raises(ValueError):
            make_sparse_cov(6, Structure.block((3, 2)), seed=0)

    def test_banded_support_and_decay(self):
        model = make_sparse_cov(6, Structure.banded(2, 0.4), seed=3)
        e = model.sigma.entries
        for a in range(6):
            for b in range(6):
                if abs(a - b) > 2:
                    assert e[a, b] == 0.0
                else:
                    assert e[a, b] != 0.0

    def test_random_sparse_support_is_symmetric(self):
        model = make_sparse_cov(12, Structure.random_sparse(0.3), seed=4)
        support = model.sigma.entries != 0.0
        np.testing.assert_array_equal(support, support.T)
        off = support.sum() - 12
        assert 0 < off < 12 * 11  # some but not all off-diagonals

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            Structure.banded(-1, 0.5)
        with pytest.raises(ValueError):
            Structure.banded(2, 1.5)
        with pytest.raises(ValueError):
            Structure.random_sparse(0.0)
        with pytest.raises(ValueError):
            Structure.block(())


class TestMakeSparseCov:
    @pytest.mark.parametrize(
        "structure",
        [
            Structure.diagonal(),
            Structure.block((4, 3, 3)),
            Structure.banded(2, 0.5),
            Structure.random_sparse(0.2),
        ],
    )
    def test_unit_diagonal_and_definiteness(self, structure):
        model = make_sparse_cov(10, structure, seed=7)
        np.testing.assert_array_equal(np.diag(model.sigma.entries), np.ones(10))
        assert min_eigenvalue(model.sigma) >= 0.1 - 1e-9

    def test_measured_params_cover_the_matrix(self):
        model = make_sparse_cov(9, Structure.random_sparse(0.4), seed=8)
        max_diag, max_row = uniformity_diagnostics(model.sigma, model.params.q)
        assert max_diag <= model.params.M
        assert max_row <= model.params.c0

    def test_deterministic_in_seed(self):
        a = make_sparse_cov(8, Structure.random_sparse(0.3), seed=11)
        b = make_sparse_cov(8, Structure.random_sparse(0.3), seed=11)
        np.testing.assert_array_equal(a.sigma.entries, b.sigma.entries)
        c = make_sparse_cov(8, Structure.random_sparse(0.3), seed=12)
        assert not np.array_equal(a.sigma.entries, c.sigma.entries)


class TestDependenceSpec:
    def test_var1_radius_must_be_below_one(self):
        with pytest.raises(ValueError):
            DependenceSpec.var1(np.eye(2))
        spec = DependenceSpec.var1(0.5 * np.eye(2))
        assert spec.spectral_radius() == pytest.approx(0.5)

    def test_m_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DependenceSpec.m_dependent(-1)


class TestGenPanel:
    def test_iid_marginal_covariance_converges(self):
        model = make_sparse_cov(5, Structure.block((3, 2)), seed=21)
        panel = gen_panel(model, DependenceSpec.iid(), 50000, seed=1)
        est = sample_covariance(panel).entries
        assert np.max(np.abs(est - model.sigma.entries)) < 0.05

    def test_m_dependent_marginal_covariance_converges(self):
        model = make_sparse_cov(4, Structure.banded(1, 0.4), seed=22)
        panel = gen_panel(model, DependenceSpec.m_dependent(3), 50000, seed=2)
        est = sample_covariance(panel).entries
        assert np.max(np.abs(est - model.sigma.entries)) < 0.05

    def test_var1_marginal_covariance_converges(self):
        model = make_sparse_cov(4, Structure.diagonal(), seed=23)
        panel = gen_panel(model, DependenceSpec.var1(0.5 * np.eye(4)), 50000, seed=3)
        est = sample_covariance(panel).entries
        assert np.max(np.abs(est - model.sigma.entries)) < 0.05

    def test_m_zero_reproduces_iid_bitwise(self):
        model = make_sparse_cov(6, Structure.random_sparse(0.3), seed=24)
        a = gen_panel(model, DependenceSpec.iid(), 200, seed=9)
        b = gen_panel(model, DependenceSpec.m_dependent(0), 200, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_m_dependence_truncates_autocovariance(self):
        # Equal-weight averaging over m + 1 innovations leaves autocovariance
        # (m + 1 - lag) / (m + 1) * sigma at lags <= m and none beyond.
        m, t = 2, 40000
        model = make_sparse_cov(2, Structure.diagonal(), seed=25)
        x = gen_panel(model, DependenceSpec.m_dependent(m), t, seed=4).values
        def lag_cov(lag):
            a = x[:-lag] - x.mean(axis=0)
            b = x[lag:] - x.mean(axis=0)
            return float(np.mean(a[:, 0] * b[:, 0]))
        assert lag_cov(1) == pytest.approx(2.0 / 3.0, abs=0.05)
        assert lag_cov(2) == pytest.approx(1.0 / 3.0, abs=0.05)
        assert abs(lag_cov(3)) < 0.05
        assert abs(lag_cov(4)) < 0.05

    def test_var1_rows_are_serially_dependent(self):
        model = make_sparse_cov(2, Structure.diagonal(), seed=26)
        x = gen_panel(model, DependenceSpec.var1(0.7 * np.eye(2)), 20000, seed=5).values
        lag1 = float(np.mean((x[:-1, 0] - x[:, 0].mean()) * (x[1:, 0] - x[:, 0].mean())))
        assert lag1 == pytest.approx(0.7, abs=0.05)

    def test_infeasible_var1_pair_is_rejected(self):
        # A nilpotent coefficient (radius 0, so DependenceSpec accepts it)
        # can still demand more lag-one transfer than the target covariance
        # supports: sigma - A sigma A' goes indefinite.
        sigma = SymMatrix(np.diag([1.0, 0.11]), ("a", "b"))
        model = SparseCovModel(
            sigma=sigma,
            params=UniformityParams(q=0.0, c0=1.0, M=1.0),
            structure=Structure.diagonal(),
        )
        coeff = np.array([[0.0, 0.0], [0.95, 0.0]])
        with pytest.raises(InfeasibleDependenceError):
            gen_panel(model, DependenceSpec.var1(coeff), 100, seed=6)

    def test_deterministic_in_seed(self):
        model = make_sparse_cov(4, Structure.banded(1, 0.3), seed=27)
        a = gen_panel(model, DependenceSpec.m_dependent(2), 150, seed=14)
        b = gen_panel(model, DependenceSpec.m_dependent(2), 150, seed=14)
        np.testing.assert_array_equal(a.values, b.values)
        c = gen_panel(model, DependenceSpec.m_dependent(2), 150, seed=15)
        assert not np.array_equal(a.values, c.values)

    def test_labels_carried_from_model(self):
        model = make_sparse_cov(3, Structure.diagonal(), seed=28)
        panel = gen_panel(model, DependenceSpec.iid(), 10, seed=0)
        assert panel.labels == ("x1", "x2", "x3")


class TestRandomVar1:
    # at this seed the first coefficient draw is infeasible and the second is not
    MODEL = make_sparse_cov(6, Structure.random_sparse(0.3), seed=1)

    def test_feasibility_check_builds_no_panel(self, monkeypatch):
        built = []
        monkeypatch.setattr(simulate, "gen_panel", lambda *a, **k: built.append("gen_panel"))
        monkeypatch.setattr(simulate, "_gen_var1", lambda *a, **k: built.append("_gen_var1"))
        dep = random_var1(self.MODEL, 0.5, seed=1)
        assert built == []
        assert dep.spectral_radius() == pytest.approx(0.5)

    def test_redrawn_coefficient_generates_a_panel(self):
        dep = random_var1(self.MODEL, 0.5, seed=1)
        panel = gen_panel(self.MODEL, dep, 20, seed=0)
        assert panel.values.shape == (20, 6)

    def test_no_feasible_draw_is_infeasible(self):
        model = make_sparse_cov(6, Structure.random_sparse(0.3), seed=3)
        with pytest.raises(InfeasibleDependenceError):
            random_var1(model, 0.9, seed=3)


class TestFractionalCoverSize:
    def test_iid_is_one(self):
        assert fractional_cover_size(DependenceSpec.iid(), 100) == 1

    def test_m_dependent_is_m_plus_one(self):
        assert fractional_cover_size(DependenceSpec.m_dependent(0), 100) == 1
        assert fractional_cover_size(DependenceSpec.m_dependent(2), 100) == 3
        assert fractional_cover_size(DependenceSpec.m_dependent(8), 100) == 9

    def test_capped_by_sample_length(self):
        assert fractional_cover_size(DependenceSpec.m_dependent(99), 50) == 50

    def test_var1_is_not_applicable(self):
        with pytest.raises(NotApplicableError):
            fractional_cover_size(DependenceSpec.var1(0.4 * np.eye(2)), 100)


class TestRateExperiment:
    def test_smoke_report_shape(self):
        model = make_sparse_cov(8, Structure.banded(1, 0.4), seed=31)
        report = rate_experiment(
            model, DependenceSpec.iid(), [60, 120], n_reps=3, seed=5
        )
        assert len(report.rows) == 6
        assert set(report.medians) == {60, 120}
        assert set(report.theory) == {60, 120}
        assert report.theory[120] < report.theory[60]
        assert report.j == 8

    def test_errors_are_positive_and_finite(self):
        model = make_sparse_cov(6, Structure.block((3, 3)), seed=32)
        report = rate_experiment(
            model, DependenceSpec.m_dependent(1), [80], n_reps=3, seed=6
        )
        for _, level, _, op, frob in report.rows:
            assert level == 1.0
            assert 0 <= op < 10 and 0 <= frob < 10

    def test_deterministic(self):
        model = make_sparse_cov(5, Structure.diagonal(), seed=33)
        a = rate_experiment(model, DependenceSpec.iid(), [60], n_reps=2, seed=7)
        b = rate_experiment(model, DependenceSpec.iid(), [60], n_reps=2, seed=7)
        assert a.rows == b.rows

    def test_json_output(self):
        model = make_sparse_cov(5, Structure.diagonal(), seed=34)
        report = rate_experiment(model, DependenceSpec.iid(), [60], n_reps=2, seed=8)
        obj = rate_report_to_json_obj(report)
        assert set(obj) == {"j", "q", "c0", "medians", "theory"}
        assert obj["medians"]["60"]["op_error"] == report.medians[60][0]
