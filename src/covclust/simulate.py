"""Synthetic sparse covariance targets and dependent panel generators: what
``covclust simulate`` draws and describes in its reports.

Three dependence regimes are supported.  Independent rows and moving-average
dependence of order ``m`` share one code path (``m = 0`` *is* the independent
generator), so their panels agree exactly at the same seed.  Autoregressive
dependence iterates a stable VAR(1) whose innovation covariance is chosen so
the stationary row covariance equals the requested target.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Literal, get_args

import numpy as np

from .crossval import _stream
from .errors import InfeasibleDependenceError, _require_integer
from .matrices import SymMatrix, UniformityParams, uniformity_diagnostics
from .panel import TimeSeriesPanel

__all__ = [
    "StructureKind",
    "DependenceKind",
    "Structure",
    "SparseCovModel",
    "DependenceSpec",
    "make_sparse_cov",
    "random_var1",
    "gen_panel",
    "model_to_json_obj",
]

#: smallest eigenvalue every generated covariance is pushed up to
_MIN_EIG_TARGET = 0.1

_BURN_IN = 500

StructureKind = Literal["diagonal", "block", "banded", "random_sparse"]
DependenceKind = Literal["iid", "m_dependent", "var1"]

# the Structure fields each kind uses; the others must keep their defaults
_STRUCTURE_FIELDS = {
    "diagonal": (),
    "block": ("block_sizes",),
    "banded": ("bandwidth", "decay"),
    "random_sparse": ("density",),
}


@dataclass(frozen=True)
class Structure:
    """Support pattern for a generated covariance matrix.

    ``kind`` is one of :data:`StructureKind`; construction checks the fields
    it uses and rejects any other field set away from its default.
    """

    kind: StructureKind
    block_sizes: tuple[int, ...] = ()
    bandwidth: int = 0
    decay: float = 0.0
    density: float = 0.0

    def __post_init__(self):
        if self.kind not in get_args(StructureKind):
            raise ValueError(f"unknown structure kind {self.kind!r}")
        sizes = tuple(_require_integer("block size", b) for b in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "bandwidth", _require_integer("bandwidth", self.bandwidth))
        object.__setattr__(self, "decay", float(self.decay))
        object.__setattr__(self, "density", float(self.density))
        used = ("kind", *_STRUCTURE_FIELDS[self.kind])
        stray = [
            f.name
            for f in fields(self)
            if f.name not in used and getattr(self, f.name) != f.default
        ]
        if stray:
            raise ValueError(f"a {self.kind} structure takes no {', '.join(stray)}")
        if self.kind == "block" and (not self.block_sizes or min(self.block_sizes) < 1):
            raise ValueError(f"block sizes must be positive, got {self.block_sizes}")
        if self.kind == "banded" and self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.kind == "banded" and not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if self.kind == "random_sparse" and not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")

    @classmethod
    def diagonal(cls) -> "Structure":
        return cls(kind="diagonal")

    @classmethod
    def block(cls, block_sizes) -> "Structure":
        return cls(kind="block", block_sizes=block_sizes)

    @classmethod
    def banded(cls, bandwidth: int, decay: float) -> "Structure":
        return cls(kind="banded", bandwidth=bandwidth, decay=decay)

    @classmethod
    def random_sparse(cls, density: float) -> "Structure":
        return cls(kind="random_sparse", density=density)


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
    radius of ``A`` strictly below 1.  Independence is ``m = 0``, so ``m``
    drives every kind but ``var1``.
    """

    kind: DependenceKind
    m: int = 0
    coeff: np.ndarray | None = None
    _radius: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in get_args(DependenceKind):
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        object.__setattr__(self, "m", _require_integer("m", self.m))
        if self.m < 0 or (self.kind == "iid" and self.m != 0):
            raise ValueError(f"m must be >= 0, and 0 for iid, got {self.m}")
        if self.kind == "var1":
            a = np.array(self.coeff, dtype=float, copy=True)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("var1 coefficient must be a square matrix")
            radius = float(np.max(np.abs(np.linalg.eigvals(a))))
            if radius >= 1.0:
                raise ValueError(f"var1 spectral radius must be < 1, got {radius:.6g}")
            a.setflags(write=False)
            object.__setattr__(self, "coeff", a)
            object.__setattr__(self, "_radius", radius)

    @classmethod
    def iid(cls) -> "DependenceSpec":
        return cls(kind="iid")

    @classmethod
    def m_dependent(cls, m: int) -> "DependenceSpec":
        return cls(kind="m_dependent", m=m)

    @classmethod
    def var1(cls, coeff) -> "DependenceSpec":
        return cls(kind="var1", coeff=np.array(coeff, dtype=float))

    def spectral_radius(self) -> float:
        """Spectral radius of the var1 coefficient, found at validation; 0 for other kinds."""
        return self._radius


def _rescale_to_unit_diag(base: np.ndarray) -> np.ndarray:
    """Lift the spectrum to ``_MIN_EIG_TARGET`` while keeping the unit diagonal.

    Adding ``delta * I`` and rescaling by ``1 / (1 + delta)`` preserves zeros
    and the diagonal (each diagonal entry is ``(1 + delta) / (1 + delta)``,
    exactly 1 in floating point); ``delta = (target - lmin) / (1 - target)``
    lands the smallest eigenvalue exactly on the target.
    """
    lmin = float(np.linalg.eigvalsh(base)[0])
    if lmin >= _MIN_EIG_TARGET:
        return base
    delta = (_MIN_EIG_TARGET - lmin) / (1.0 - _MIN_EIG_TARGET)
    return (base + delta * np.eye(base.shape[0])) / (1.0 + delta)


def make_sparse_cov(j: int, structure: Structure, seed: int = 0) -> SparseCovModel:
    """Draw a positive definite covariance with unit diagonal and the given support.

    Block entries are uniform on ``[0.2, 0.5]``, random-sparse entries the
    same with a random sign, banded entries ``decay ** lag`` up to the
    bandwidth.  One stream fills the upper triangle in row-major pair order:
    a block target draws a uniform for every same-block pair; a random-sparse
    target draws a keep uniform for every pair, then a magnitude for every
    kept pair, then a sign uniform for every kept pair.  A draw that is not
    comfortably positive definite is shifted and rescaled so its smallest
    eigenvalue is 0.1, with the diagonal still exactly 1 and the support
    unchanged.  The model carries its measured sparsity class at ``q = 0``:
    ``c0`` is the largest per-row nonzero count and ``M`` the largest variance.
    """
    _require_integer("j", j)
    if j < 1:
        raise ValueError(f"dimension must be >= 1, got {j}")
    if structure.kind == "block" and sum(structure.block_sizes) != j:
        raise ValueError(f"block sizes {structure.block_sizes} do not sum to {j}")
    rng = _stream(seed, 0x5C0)
    rows, cols = np.triu_indices(j, 1)
    keep, values = np.zeros(rows.size, dtype=bool), np.empty(0)
    if structure.kind == "block":
        block = np.repeat(np.arange(len(structure.block_sizes)), structure.block_sizes)
        keep = block[rows] == block[cols]
        values = rng.uniform(0.2, 0.5, np.count_nonzero(keep))
    elif structure.kind == "banded":
        lag = cols - rows
        keep = lag <= structure.bandwidth
        # Python's pow, as the pair loop had it: np.power can round the last bit otherwise
        values = np.array([structure.decay**k for k in range(j)])[lag[keep]]
    elif structure.kind == "random_sparse":
        keep = rng.random(rows.size) < structure.density
        n = np.count_nonzero(keep)
        values = rng.uniform(0.2, 0.5, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    base = np.eye(j)
    base[rows[keep], cols[keep]] = base[cols[keep], rows[keep]] = values
    sigma = SymMatrix._frozen(_rescale_to_unit_diag(base), tuple(f"x{k + 1}" for k in range(j)))
    max_diag, max_row = uniformity_diagnostics(sigma, 0.0)
    params = UniformityParams(q=0.0, c0=max_row, M=max_diag)
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
    _require_integer("t", t)
    if t < 2:
        raise ValueError(f"panel length must be >= 2, got {t}")
    rng = _stream(seed, 0x9A7E1)
    sigma = model.sigma.entries
    if dep.kind == "var1":
        values = _gen_var1(sigma, dep.coeff, t, rng)
    else:
        values = _gen_moving_average(sigma, dep.m, t, rng)
    return TimeSeriesPanel(values, model.sigma.labels)


def random_var1(model: SparseCovModel, radius: float, seed: int = 0) -> DependenceSpec:
    """VAR(1) dependence with a random coefficient of spectral radius ``radius``.

    ``A = radius * S Q S^-1``, with ``S`` the symmetric square root of
    ``model.sigma`` and ``Q`` a Haar-random orthogonal matrix.  Every
    eigenvalue of ``A`` has modulus ``radius`` and the innovation covariance
    ``sigma - A sigma A'`` is ``(1 - radius**2) sigma``, so one draw is
    feasible for any positive definite target and any ``radius`` in
    ``[0, 1)``; any other target raises :class:`InfeasibleDependenceError`.
    Identical ``(model, radius, seed)`` always yields an identical coefficient.
    """
    if not 0.0 <= radius < 1.0:
        raise ValueError(f"var1 spectral radius must be in [0, 1), got {radius}")
    lam, vec = np.linalg.eigh(model.sigma.entries)
    if lam[0] <= 0.0:
        raise InfeasibleDependenceError(
            f"var1 target covariance is not positive definite: min eigenvalue {lam[0]:.3g}"
        )
    rng = _stream(seed, 0xA151)
    # QR of a Gaussian draw, R's diagonal signs folded into Q, is Haar-distributed
    q, r = np.linalg.qr(rng.standard_normal((model.sigma.dim,) * 2))
    q *= np.sign(np.diag(r))
    root = np.sqrt(lam)
    return DependenceSpec.var1(radius * ((vec * root) @ vec.T @ q @ (vec / root) @ vec.T))


def model_to_json_obj(model: SparseCovModel, dep: DependenceSpec, t: int, seed: int) -> dict:
    """JSON-ready description of a simulated panel: size, seed, structure, dependence, class."""
    dependence = {"kind": dep.kind}
    if dep.kind == "m_dependent":
        dependence["m"] = dep.m
    if dep.kind == "var1":
        dependence["radius"] = dep.spectral_radius()
    return {
        "j": model.sigma.dim,
        "t": _require_integer("t", t),
        "seed": _require_integer("seed", seed),
        "structure": asdict(model.structure),
        "dependence": dependence,
        "uniformity": asdict(model.params),
    }
