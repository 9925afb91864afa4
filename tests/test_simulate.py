import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import covclust
from covclust import simulate
from covclust.cli import main
from covclust.crossval import _SEED_MASK
from covclust.errors import InfeasibleDependenceError
from covclust.ingest import read_csv_matrix
from covclust.matrices import SymMatrix, UniformityParams, uniformity_diagnostics
from covclust.panel import sample_covariance
from covclust.simulate import (
    DependenceSpec,
    SparseCovModel,
    Structure,
    gen_panel,
    make_sparse_cov,
    random_var1,
)
from oracles import loop_banded_base, loop_block_base
from rates import min_eigenvalue


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

    def test_direct_construction_is_validated(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Structure(kind="banded")
        with pytest.raises(ValueError, match="unknown structure kind 'bogus'"):
            Structure(kind="bogus")
        with pytest.raises(ValueError, match="block sizes"):
            Structure(kind="block")
        with pytest.raises(ValueError, match="density"):
            Structure(kind="random_sparse")

    def test_numpy_integers_are_stored_as_python_ints(self):
        structure = Structure(kind="block", block_sizes=np.array([2, 3]))
        assert structure.block_sizes == (2, 3)
        assert all(type(b) is int for b in structure.block_sizes)
        assert type(Structure(kind="banded", bandwidth=np.int64(2), decay=0.5).bandwidth) is int
        assert type(DependenceSpec(kind="m_dependent", m=np.int64(2)).m) is int

    @pytest.mark.parametrize("kwargs, stray", [
        (dict(kind="diagonal", bandwidth=3, density=0.7), "bandwidth, density"),
        (dict(kind="diagonal", block_sizes=(2, 2)), "block_sizes"),
        (dict(kind="block", block_sizes=(2, 2), decay=0.5), "decay"),
        (dict(kind="banded", bandwidth=2, decay=0.5, density=0.3), "density"),
        (dict(kind="banded", bandwidth=2, decay=0.5, block_sizes=(4,)), "block_sizes"),
        (dict(kind="random_sparse", density=0.3, bandwidth=1, decay=0.2), "bandwidth, decay"),
    ], ids=["diagonal", "diagonal_sizes", "block", "banded", "banded_sizes", "random_sparse"])
    def test_fields_outside_the_kind_are_rejected_by_name(self, kwargs, stray):
        assert set(simulate._STRUCTURE_FIELDS) == set(get_args(simulate.StructureKind))
        with pytest.raises(ValueError, match=f"structure takes no {stray}$"):
            Structure(**kwargs)

    def test_cli_offers_every_kind(self, tmp_path, capsys):
        for kind in get_args(simulate.StructureKind):
            out = tmp_path / kind
            assert main(["simulate", "--j", "4", "--t", "10", "--structure", kind,
                         "--block-sizes", "2,2", "--out", str(out)]) == 0
            assert json.loads((out / "model.json").read_text())["structure"]["kind"] == kind
        for kind in get_args(simulate.DependenceKind):
            out = tmp_path / kind
            assert main(["simulate", "--j", "4", "--t", "10", "--dependence", kind,
                         "--out", str(out)]) == 0
            assert json.loads((out / "model.json").read_text())["dependence"]["kind"] == kind
        capsys.readouterr()


def _model():
    return make_sparse_cov(4, Structure.diagonal(), seed=1)


@pytest.mark.parametrize("call", [
    lambda: Structure.block([2.5, 3]),
    lambda: Structure.block([True, 2]),
    lambda: Structure.banded(1.5, 0.5),
    lambda: DependenceSpec.m_dependent(1.7),
    lambda: DependenceSpec(kind="m_dependent", m=1.5),
    lambda: make_sparse_cov(3.0, Structure.diagonal()),
    lambda: gen_panel(_model(), DependenceSpec.iid(), 10.0),
], ids=["float_block", "bool_block", "bandwidth", "m_classmethod", "m_direct", "j", "t"])
def test_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


# each simulation function that takes a seed, returning the bytes it draws
_SEEDED = {
    "make_sparse_cov": lambda seed: make_sparse_cov(
        5, Structure.random_sparse(0.5), seed=seed
    ).sigma.entries.tobytes(),
    "gen_panel": lambda seed: gen_panel(
        _model(), DependenceSpec.m_dependent(1), 12, seed=seed
    ).values.tobytes(),
    "random_var1": lambda seed: random_var1(_model(), 0.5, seed=seed).coeff.tobytes(),
}


@pytest.mark.parametrize("seed", [1.5, True, "3"])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seed_must_be_an_integer(name, seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_numpy_integer_seed_draws_the_same_bytes(name):
    assert _SEEDED[name](np.int64(5)) == _SEEDED[name](5)


class TestWholeArrayFill:
    """The upper-triangle fill against the pair-by-pair loops it replaced."""

    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (3, 4, 7), (1, 5, 1, 2), (10, 1), (40, 60)])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_block_matches_loop_bit_for_bit(self, sizes, seed):
        rng = np.random.default_rng([seed & _SEED_MASK, 0x5C0])
        expected = simulate._rescale_to_unit_diag(loop_block_base(sizes, rng))
        got = make_sparse_cov(sum(sizes), Structure.block(sizes), seed=seed).sigma.entries
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("j", [1, 2, 5, 12, 60])
    @pytest.mark.parametrize("bandwidth,decay", [(1, 0.4), (2, 0.5), (3, 0.9), (100, 0.3)])
    def test_banded_matches_loop_bit_for_bit(self, j, bandwidth, decay):
        expected = simulate._rescale_to_unit_diag(loop_banded_base(j, bandwidth, decay))
        got = make_sparse_cov(j, Structure.banded(bandwidth, decay), seed=4).sigma.entries
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("density", [0.05, 0.3])
    def test_random_sparse_keeps_a_binomial_share_with_both_signs(self, density):
        j = 200
        entries = make_sparse_cov(j, Structure.random_sparse(density), seed=9).sigma.entries
        upper = entries[np.triu_indices(j, 1)]
        pairs = upper.size
        sd = np.sqrt(pairs * density * (1.0 - density))
        assert abs(np.count_nonzero(upper) - pairs * density) <= 5.0 * sd
        assert np.any(upper > 0) and np.any(upper < 0)
        assert np.all(np.diag(entries) == 1.0)

    @pytest.mark.parametrize("dependence", ["iid", "var1"])
    def test_simulate_is_the_same_bytes_at_one_and_two_threads(self, tmp_path, dependence):
        # unpinned, the bytes depend on the BLAS thread count from about J=100
        # (var1) and J=150 (iid); the command pins one thread at any J
        j = 400
        src = str(Path(covclust.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "covclust", "simulate", "--j", str(j), "--t", "300",
                 "--dependence", dependence, "--seed", "5", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out)
        for name in ("panel.csv", "truth_sigma.csv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
        assert min_eigenvalue(model.sigma.entries) >= 0.1 - 1e-9

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

    def test_iid_must_have_m_zero(self):
        with pytest.raises(ValueError, match="0 for iid"):
            DependenceSpec("iid", m=2)

    def test_iid_is_m_dependent_of_order_zero(self):
        assert DependenceSpec.iid().m == DependenceSpec.m_dependent(0).m == 0

    def test_var1_radius_found_once_at_validation(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        dep = DependenceSpec.var1(0.5 * np.eye(3))
        assert calls == [(3, 3)]
        model = make_sparse_cov(3, Structure.diagonal(), seed=1)
        assert dep.spectral_radius() == 0.5
        assert simulate.model_to_json_obj(model, dep, 20, 0)["dependence"]["radius"] == 0.5
        assert calls == [(3, 3)]

    def test_iid_keeps_its_label_in_model_json(self, tmp_path, capsys):
        out = tmp_path / "iid"
        assert main(["simulate", "--j", "4", "--t", "10", "--dependence", "iid",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text())
        assert model["dependence"] == {"kind": "iid"}


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

    def test_var1_coefficient_must_match_the_target(self):
        model = make_sparse_cov(3, Structure.diagonal(), seed=0)
        dep = DependenceSpec.var1(0.5 * np.eye(4))
        with pytest.raises(
            ValueError, match=r"var1 coefficient shape \(4, 4\) != covariance shape \(3, 3\)"
        ):
            gen_panel(model, dep, 20, seed=0)

    def test_labels_carried_from_model(self):
        model = make_sparse_cov(3, Structure.diagonal(), seed=28)
        panel = gen_panel(model, DependenceSpec.iid(), 10, seed=0)
        assert panel.labels == ("x1", "x2", "x3")


class TestRandomVar1:
    # a positive definite target, so the first and only draw is feasible
    MODEL = make_sparse_cov(6, Structure.random_sparse(0.3), seed=1)

    def test_feasibility_check_builds_no_panel(self, monkeypatch):
        built = []
        monkeypatch.setattr(simulate, "gen_panel", lambda *a, **k: built.append("gen_panel"))
        monkeypatch.setattr(simulate, "_gen_var1", lambda *a, **k: built.append("_gen_var1"))
        dep = random_var1(self.MODEL, 0.5, seed=1)
        assert built == []
        assert dep.spectral_radius() == pytest.approx(0.5)

    def test_drawn_coefficient_generates_a_panel(self):
        dep = random_var1(self.MODEL, 0.5, seed=1)
        panel = gen_panel(self.MODEL, dep, 20, seed=0)
        assert panel.values.shape == (20, 6)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -0.5, 1.0])
    def test_radius_outside_unit_interval_rejected_before_any_draw(self, radius, monkeypatch):
        def eigen(a):
            raise AssertionError("eigen-decomposition before the radius check")

        monkeypatch.setattr(simulate.np.linalg, "eigh", eigen)
        monkeypatch.setattr(simulate.np.linalg, "eigvals", eigen)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            random_var1(self.MODEL, radius, seed=1)

    @pytest.mark.parametrize("j", [6, 40, 200])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 0.9, 0.99])
    def test_one_draw_is_feasible_at_any_size_and_radius(self, j, radius):
        # sigma - A sigma A' = (1 - r^2) sigma, so its smallest eigenvalue is known
        model = make_sparse_cov(j, Structure.random_sparse(0.1), seed=5)
        dep = random_var1(model, radius, seed=5)
        assert abs(dep.spectral_radius() - radius) <= 1e-12
        sigma = model.sigma.entries
        lmin = float(np.linalg.eigvalsh(sigma)[0])
        noise = sigma - dep.coeff @ sigma @ dep.coeff.T
        assert float(np.linalg.eigvalsh((noise + noise.T) / 2.0)[0]) >= (
            0.99 * (1.0 - radius**2) * lmin
        )

    def test_indefinite_target_is_infeasible_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a coefficient was drawn")

        monkeypatch.setattr(simulate.np.random, "default_rng", no_draw)
        model = SparseCovModel(
            sigma=SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b")),
            params=UniformityParams(q=0.0, c0=2.0, M=1.0),
            structure=Structure.random_sparse(1.0),
        )
        with pytest.raises(InfeasibleDependenceError, match="not positive definite"):
            random_var1(model, 0.5, seed=1)

    def test_forty_series_simulate_writes_its_panel(self, tmp_path, capsys):
        out = tmp_path / "var1"
        assert main(["simulate", "--j", "40", "--t", "300", "--dependence", "var1",
                     "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        labels, block, _ = read_csv_matrix(out / "panel.csv")
        assert len(labels) == 40 and block.shape == (300, 40)
