"""Synthetic sparse covariance targets, dependent panel generators, and
error-scaling experiments for the thresholded estimator.

Three dependence regimes are supported.  Independent rows and moving-average
dependence of order ``m`` share one code path (``m = 0`` *is* the independent
generator), so their panels agree exactly at the same seed.  Autoregressive
dependence iterates a stable VAR(1) whose innovation covariance is chosen so
the stationary row covariance equals the requested target.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .crossval import _SEED_MASK, CvTemplate, select_threshold
from .errors import InfeasibleDependenceError, NotApplicableError
from .matrices import (
    SymMatrix,
    UniformityParams,
    frobenius_norm,
    hard_threshold,
    min_eigenvalue,
    operator_norm,
    uniformity_diagnostics,
)
from .panel import TimeSeriesPanel, sample_covariance

__all__ = [
    "Structure",
    "SparseCovModel",
    "DependenceSpec",
    "make_sparse_cov",
    "random_var1",
    "gen_panel",
    "model_to_json_obj",
    "fractional_cover_size",
    "RateReport",
    "rate_experiment",
    "rate_report_to_json_obj",
]

#: smallest eigenvalue every generated covariance is pushed up to
_MIN_EIG_TARGET = 0.1

_BURN_IN = 500


@dataclass(frozen=True)
class Structure:
    """Support pattern for a generated covariance matrix.

    Use the classmethod constructors; ``kind`` is one of ``diagonal``,
    ``block``, ``banded``, ``random_sparse``.
    """

    kind: str
    block_sizes: tuple[int, ...] = ()
    bandwidth: int = 0
    decay: float = 0.0
    density: float = 0.0

    @classmethod
    def diagonal(cls) -> "Structure":
        return cls(kind="diagonal")

    @classmethod
    def block(cls, block_sizes) -> "Structure":
        sizes = tuple(int(b) for b in block_sizes)
        if not sizes or any(b < 1 for b in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        return cls(kind="block", block_sizes=sizes)

    @classmethod
    def banded(cls, bandwidth: int, decay: float) -> "Structure":
        if bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {bandwidth}")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {decay}")
        return cls(kind="banded", bandwidth=int(bandwidth), decay=float(decay))

    @classmethod
    def random_sparse(cls, density: float) -> "Structure":
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {density}")
        return cls(kind="random_sparse", density=float(density))


@dataclass(frozen=True)
class SparseCovModel:
    """A generated covariance target together with its measured sparsity class."""

    sigma: SymMatrix
    params: UniformityParams
    structure: Structure


@dataclass(frozen=True)
class DependenceSpec:
    """Temporal dependence of the generated rows.

    ``iid()`` draws independent rows; ``m_dependent(m)`` averages ``m + 1``
    equally weighted innovation rows so observations more than ``m`` periods
    apart are independent while the marginal covariance is untouched;
    ``var1(coeff)`` iterates ``x_t = A x_{t-1} + eta_t`` with the spectral
    radius of ``A`` strictly below 1.
    """

    kind: str
    m: int = 0
    coeff: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("iid", "m_dependent", "var1"):
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if self.kind == "m_dependent" and self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.kind == "var1":
            a = np.array(self.coeff, dtype=float, copy=True)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("var1 coefficient must be a square matrix")
            radius = float(np.max(np.abs(np.linalg.eigvals(a))))
            if radius >= 1.0:
                raise ValueError(f"var1 spectral radius must be < 1, got {radius:.6g}")
            a.setflags(write=False)
            object.__setattr__(self, "coeff", a)

    @classmethod
    def iid(cls) -> "DependenceSpec":
        return cls(kind="iid")

    @classmethod
    def m_dependent(cls, m: int) -> "DependenceSpec":
        return cls(kind="m_dependent", m=int(m))

    @classmethod
    def var1(cls, coeff) -> "DependenceSpec":
        return cls(kind="var1", coeff=np.array(coeff, dtype=float))

    def spectral_radius(self) -> float:
        if self.kind != "var1":
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.coeff))))


def _rescale_to_unit_diag(base: np.ndarray) -> np.ndarray:
    """Lift the spectrum to ``_MIN_EIG_TARGET`` while keeping the unit diagonal.

    Adding ``delta * I`` and rescaling by ``1 / (1 + delta)`` preserves zeros
    and the diagonal; ``delta = (target - lmin) / (1 - target)`` lands the
    smallest eigenvalue exactly on the target.
    """
    lmin = float(np.linalg.eigvalsh(base)[0])
    if lmin >= _MIN_EIG_TARGET:
        return base
    delta = (_MIN_EIG_TARGET - lmin) / (1.0 - _MIN_EIG_TARGET)
    fixed = (base + delta * np.eye(base.shape[0])) / (1.0 + delta)
    np.fill_diagonal(fixed, 1.0)
    return fixed


def make_sparse_cov(j: int, structure: Structure, seed: int = 0) -> SparseCovModel:
    """Draw a positive definite covariance with unit diagonal and the given support.

    Off-diagonal magnitudes are drawn from ``[0.2, 0.5]`` (block entries
    positive, random-sparse entries with random sign).  Whenever the raw draw
    is not comfortably positive definite it is shifted and rescaled so the
    smallest eigenvalue is at least 0.1 with the diagonal still exactly 1 and
    the support unchanged.  The returned model carries measured sparsity-class
    parameters at ``q = 0``: ``c0`` is the largest per-row nonzero count and
    ``M`` the largest variance.
    """
    if j < 1:
        raise ValueError(f"dimension must be >= 1, got {j}")
    rng = np.random.default_rng([seed & _SEED_MASK, 0x5C0])
    base = np.eye(j)
    if structure.kind == "diagonal":
        pass
    elif structure.kind == "block":
        if sum(structure.block_sizes) != j:
            raise ValueError(
                f"block sizes {structure.block_sizes} do not sum to {j}"
            )
        start = 0
        for b in structure.block_sizes:
            for a in range(start, start + b):
                for c in range(a + 1, start + b):
                    v = float(rng.uniform(0.2, 0.5))
                    base[a, c] = v
                    base[c, a] = v
            start += b
    elif structure.kind == "banded":
        for a in range(j):
            for c in range(a + 1, min(j, a + structure.bandwidth + 1)):
                v = structure.decay ** (c - a)
                base[a, c] = v
                base[c, a] = v
    elif structure.kind == "random_sparse":
        for a in range(j):
            for c in range(a + 1, j):
                if rng.random() < structure.density:
                    v = float(rng.uniform(0.2, 0.5)) * (1 if rng.random() < 0.5 else -1)
                    base[a, c] = v
                    base[c, a] = v
    else:  # pragma: no cover - Structure constructor already validates
        raise ValueError(f"unknown structure kind {structure.kind!r}")

    fixed = _rescale_to_unit_diag(base)
    labels = tuple(f"x{k + 1}" for k in range(j))
    sigma = SymMatrix(fixed, labels)
    max_diag, max_row = uniformity_diagnostics(sigma, 0.0)
    params = UniformityParams(q=0.0, c0=max_row, M=max_diag)
    if min_eigenvalue(sigma) <= 0:
        raise RuntimeError("generated covariance is not positive definite")
    return SparseCovModel(sigma=sigma, params=params, structure=structure)


def _gen_moving_average(
    sigma: np.ndarray, m: int, t: int, rng: np.random.Generator
) -> np.ndarray:
    j = sigma.shape[0]
    chol = np.linalg.cholesky(sigma)
    eps = rng.standard_normal((t + m, j))
    acc = np.zeros((t, j))
    for lag in range(m + 1):
        acc += eps[lag : lag + t]
    w = 1.0 / np.sqrt(m + 1.0)
    return (w * acc) @ chol.T


def _innovation_factor(sigma: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Cholesky factor of the VAR(1) innovation covariance ``sigma - A sigma A'``.

    Stationarity at the requested covariance pins the innovation covariance;
    the pair is infeasible when that matrix is not positive definite.
    """
    if coeff.shape != sigma.shape:
        raise ValueError(
            f"var1 coefficient shape {coeff.shape} != covariance shape {sigma.shape}"
        )
    noise_cov = sigma - coeff @ sigma @ coeff.T
    noise_cov = (noise_cov + noise_cov.T) / 2.0
    lmin = float(np.linalg.eigvalsh(noise_cov)[0])
    if lmin <= 1e-12:
        raise InfeasibleDependenceError(
            "var1 coefficient is incompatible with the target covariance: "
            f"implied innovation covariance has min eigenvalue {lmin:.3g}"
        )
    return np.linalg.cholesky(noise_cov)


def _gen_var1(
    sigma: np.ndarray, coeff: np.ndarray, t: int, rng: np.random.Generator
) -> np.ndarray:
    j = sigma.shape[0]
    chol = _innovation_factor(sigma, coeff)
    eta = rng.standard_normal((_BURN_IN + t, j)) @ chol.T
    x = np.zeros(j)
    out = np.empty((t, j))
    for step in range(_BURN_IN + t):
        x = coeff @ x + eta[step]
        if step >= _BURN_IN:
            out[step - _BURN_IN] = x
    return out


def gen_panel(
    model: SparseCovModel, dep: DependenceSpec, t: int, seed: int = 0
) -> TimeSeriesPanel:
    """Generate ``t`` rows with marginal covariance ``model.sigma`` under ``dep``.

    Identical ``(model, dep, t, seed)`` always yields an identical panel, and
    ``m_dependent(0)`` reproduces the independent generator exactly.
    """
    if t < 2:
        raise ValueError(f"panel length must be >= 2, got {t}")
    rng = np.random.default_rng([seed & _SEED_MASK, 0x9A7E1])
    sigma = model.sigma.entries
    if dep.kind in ("iid", "m_dependent"):
        m = dep.m if dep.kind == "m_dependent" else 0
        values = _gen_moving_average(sigma, m, t, rng)
    else:
        values = _gen_var1(sigma, dep.coeff, t, rng)
    return TimeSeriesPanel(values, model.sigma.labels)


def random_var1(model: SparseCovModel, radius: float, seed: int = 0) -> DependenceSpec:
    """VAR(1) dependence with a random coefficient of spectral radius ``radius``.

    The coefficient is a standard normal ``J x J`` draw scaled to ``radius``.
    A draw can leave no valid innovation covariance for ``model.sigma``; it is
    then redrawn, 50 draws in all, before the last
    :class:`InfeasibleDependenceError` is raised.  Identical
    ``(model, radius, seed)`` always yields an identical coefficient.
    """
    j = model.sigma.dim
    for draw_seed in [seed] + [seed + 1000 + k for k in range(49)]:
        rng = np.random.default_rng([draw_seed & _SEED_MASK, 0xA151])
        raw = rng.standard_normal((j, j))
        top = float(np.max(np.abs(np.linalg.eigvals(raw))))
        dep = DependenceSpec.var1(raw * (radius / top))
        try:
            _innovation_factor(model.sigma.entries, dep.coeff)
            return dep
        except InfeasibleDependenceError as exc:
            last_exc = exc
    raise last_exc


def model_to_json_obj(model: SparseCovModel, dep: DependenceSpec, t: int, seed: int) -> dict:
    """JSON-ready description of a simulated panel: size, seed, structure, dependence, class."""
    dependence = {"kind": dep.kind}
    if dep.kind == "m_dependent":
        dependence["m"] = dep.m
    if dep.kind == "var1":
        dependence["radius"] = dep.spectral_radius()
    return {
        "j": model.sigma.dim,
        "t": t,
        "seed": seed,
        "structure": asdict(model.structure),
        "dependence": dependence,
        "uniformity": asdict(model.params),
    }


def fractional_cover_size(dep: DependenceSpec, t: int) -> int:
    """Effective dependence multiplier of a length-``t`` sample.

    Independent rows give 1; ``m``-dependent rows give ``m + 1`` capped at the
    sample length.  The quantity is undefined for autoregressive dependence,
    whose influence never truncates.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if dep.kind == "iid":
        return 1
    if dep.kind == "m_dependent":
        return min(dep.m + 1, t)
    raise NotApplicableError(
        "fractional cover size is undefined for var1 dependence"
    )


@dataclass(frozen=True)
class RateReport:
    """Per-repetition errors plus medians and the theoretical error curve.

    ``rows`` holds ``(t, dep_level, rep, op_error, frob_error)`` tuples where
    ``dep_level`` is ``m`` for moving-average dependence and the spectral
    radius for var1; ``frob_error`` is the dimension-normalized Frobenius
    error ``sqrt(||.||_F^2 / J)``.
    """

    rows: tuple[tuple, ...]
    medians: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    j: int = 0
    q: float = 0.0
    c0: float = 0.0


def rate_experiment(
    model: SparseCovModel,
    dep: DependenceSpec,
    t_list,
    n_reps: int,
    cv_template: CvTemplate = CvTemplate(n_splits=20),
    seed: int = 0,
) -> RateReport:
    """Measure thresholded-estimator error across sample sizes.

    For every ``t`` and repetition: generate a panel, select a threshold by
    cross-validation, and record operator-norm and normalized-Frobenius
    distances between the thresholded sample covariance and the truth.  The
    theoretical curve is ``c0 * (log(J) * cover / t) ** ((1 - q) / 2)`` with
    ``cover`` the fractional cover size (taken as 1 for var1 dependence,
    where covers do not apply).
    """
    t_list = [int(t) for t in t_list]
    if not t_list or any(t < 6 for t in t_list):
        raise ValueError(f"every sample size must be >= 6, got {t_list}")
    if n_reps < 1:
        raise ValueError(f"n_reps must be positive, got {n_reps}")
    j = model.sigma.dim
    if dep.kind == "m_dependent":
        dep_level = float(dep.m)
    elif dep.kind == "var1":
        dep_level = dep.spectral_radius()
    else:
        dep_level = 0.0
    rows = []
    medians = {}
    theory = {}
    for ti, t in enumerate(t_list):
        op_errors = []
        for rep in range(n_reps):
            panel_seed = int(
                np.random.default_rng([seed & _SEED_MASK, ti, rep]).integers(_SEED_MASK)
            )
            panel = gen_panel(model, dep, t, seed=panel_seed)
            cov = sample_covariance(panel)
            cfg = replace(cv_template, seed=panel_seed).for_panel(panel, cov)
            s_hat = select_threshold(panel, cfg, "covariance").selected
            est = hard_threshold(cov, s_hat)
            diff = SymMatrix(est.entries - model.sigma.entries, est.labels)
            op = operator_norm(diff)
            frob = frobenius_norm(diff) / np.sqrt(j)
            rows.append((t, dep_level, rep, op, frob))
            op_errors.append((op, frob))
        medians[t] = tuple(float(np.median(errors)) for errors in zip(*op_errors))
        if dep.kind == "var1":
            cover = 1
        else:
            cover = fractional_cover_size(dep, t)
        theory[t] = float(
            model.params.c0
            * (np.log(j) * cover / t) ** ((1.0 - model.params.q) / 2.0)
        )
    return RateReport(
        rows=tuple(rows),
        medians=medians,
        theory=theory,
        j=j,
        q=model.params.q,
        c0=model.params.c0,
    )


def rate_report_to_json_obj(report: RateReport) -> dict:
    """Summary medians and the theoretical curve, keyed by sample size."""
    return {
        "j": int(report.j),
        "q": float(report.q),
        "c0": float(report.c0),
        "medians": {
            str(t): {"op_error": float(op), "frob_error": float(fr)}
            for t, (op, fr) in sorted(report.medians.items())
        },
        "theory": {str(t): float(v) for t, v in sorted(report.theory.items())},
    }
