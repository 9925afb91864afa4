"""Groupwise index-model fitting by kernel-weighted local-linear iteration.

The response is modeled as a sum of one unknown ridge function per variable
group, each applied to a single linear index of that group's variables.  One
iteration (a) evaluates the current indices, (b) fits a local-linear surface
in index space at every observation to get a fitted level and per-group
slopes, and (c) re-solves for all index coefficients at once in a pooled
kernel-weighted least-squares step whose solution may be shifted by
nonnegative multipliers so that every constrained coefficient keeps the sign
of its screening correlation (a coefficient that would cross zero is pinned
exactly to zero instead).  Group coefficient vectors are renormalized after
every update: multi-variable groups to unit Euclidean norm, single-variable
groups to exactly 1 (their link absorbs scale and direction).  That
iteration is a fixed-point map, and it converges linearly, so it is driven
with squared extrapolation (SQUAREM, :func:`_squarem`).

Every per-anchor kernel sum is taken in moment form.  For T×T weights ``W``
and columns ``X``,

    sum_j w_ij (x_j - x_i)(x_j - x_i)' = M2_i - x_i M1_i' - M1_i x_i' + M0_i x_i x_i'

with ``M0 = W 1``, ``M1 = W X`` and ``M2 = W (X ⊗ X)`` (Fan & Gijbels, *Local
Polynomial Modelling*, 1996).  The coefficient columns and the response are
centred once, before the iteration (the fit is invariant to such shifts,
while the moment form's rounding error grows with the square of a column's
offset), and each iteration applies its T×T weight matrix to their product
rows once.  That matrix is built and summed a block of anchor rows at a
time, so it never exists whole, and the blocks are shared among a few
threads, each with its own block buffer.  A block's Gaussian weights are
one small product and one ``exp``: with ``u = (v - mean v) / h``, the
exponent ``-|u_j - u_i|^2 / 2`` minus the log of the kernel's norm expands
into ``u_i·u_j - |u_i|^2/2 - |u_j|^2/2 - log norm``, a dot product of rows
of two T×(S+2) tables built once per iteration (:func:`_kernel_moments`).
Each iteration applies the identity once, to the coefficient columns, and
the local-linear surface and the pooled step both read its sums: the centred
indices are ``X b`` for the K×S block-diagonal coefficients ``b``, so their
spread about anchor ``i`` is ``b' C_i b`` for the columns' ``C_i``.  No
T×T×K tensor is built; memory in the iteration is O(workers·block·T +
T·K²) for K coefficients, one block×T buffer per worker, and the link
backfit keeps one (T + grid)×T smoother matrix per group, O(S·T²) for S
groups, each built a block of rows at a time straight into its place.  The
smoothers take their weights elementwise (:func:`_kernel_matrix`), free of
the expansion's cancellation, because a smoother row's local-linear
determinant may be as small as 1e-12 of its scale.  The same sums give
each iteration's objective without a T×T residual (:func:`_iteration_step`).

The kernel-weighted sums over observations, each block's exponents and
moments, the surface's projection of the spreads and each backfit sweep's
smoothing, are BLAS products (:func:`_weighted_sums`).
How OpenBLAS splits a product among its threads sets the product's
summation order, so :func:`fit` holds :func:`covclust._pool.one_blas_thread`
from the starting direction to the tabulated links: every BLAS and LAPACK
call of the fit then runs on one thread, and the results are the same bytes
at any BLAS thread count.  Where numpy's BLAS cannot be pinned, the sums run
in numpy's own ``einsum`` loops instead, whose bytes never depend on it.
Every block of kernel rows gets the same operations on whichever thread
sums it, so the results are the same bytes at any number of cores too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _pool
from .errors import DegenerateResponseError, InsufficientDataError, _require_integer
from .matrices import _write_labeled_csv
from .panel import TimeSeriesPanel
from .pipeline import ModelSpec

__all__ = [
    "FitConfig",
    "IterationRecord",
    "GroupwiseFit",
    "kernel_weight",
    "fit",
    "predict",
    "explained_variation",
    "fit_to_json_obj",
    "links_to_csv",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Caps on the inner iterations.  Reaching one is reported on the fit
# (``backfit_converged``, ``constraint_solver_capped``), not raised.
_BACKFIT_MAX_SWEEPS = 50
# the active-set solver takes at most this many steps per coefficient ...
_ACTIVE_SET_STEPS_PER_COEF = 3
# ... plus this many
_ACTIVE_SET_EXTRA_STEPS = 10

# points on which each link is tabulated
_LINK_GRID_SIZE = 100
# the pooled step's ridge fallback adds this times trace(G) to the diagonal
_RIDGE_SCALE = 1e-8
# rows of a kernel matrix built at a time by :func:`_each_row_block`
_KERNEL_BLOCK_ROWS = 64
# threads that share one pass's row blocks, at most; each holds one
# block×T buffer, 1 MB at T=2000
_KERNEL_MAX_WORKERS = 8


@dataclass(frozen=True)
class FitConfig:
    """Convergence controls of the coefficient iteration.

    The iteration drives the coefficient map with squared extrapolation
    (:func:`_squarem`).  It stops as soon as one map evaluation moves its
    input by less than ``tolerance`` in every coefficient, or after
    ``max_iter`` map evaluations; ``GroupwiseFit.iterations`` counts map
    evaluations too.  Bandwidths follow the rule of thumb (1.06 times the
    index standard deviation times ``T**(-1/(4+S))``, recomputed at every
    evaluation).
    """

    tolerance: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError(f"tolerance must be a real number, got {self.tolerance!r}")
        object.__setattr__(self, "max_iter", _require_integer("max_iter", self.max_iter))
        if not (self.tolerance > 0 and np.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One evaluation of the coefficient map: solutions, multipliers, objective.

    ``zeta`` is the unconstrained pooled solution, ``beta_raw`` the
    sign-constrained one, ``beta`` the renormalized map value.  ``lam``
    holds the nonnegative multipliers (zero wherever the unconstrained
    solution already had the right sign).  ``objective`` is the pooled
    kernel-weighted mean squared residual at ``beta_raw``,
    ``(b'Gb - 2c'b + e0) / sum(w)`` from the step's normal equations ``G``,
    ``c`` and weighted sum of squared targets ``e0``.

    ``kind`` says where the map's input came from: ``"plain"`` for the
    previous map value, ``"extrapolated"`` for a SQUAREM point, and
    ``"rejected"`` for a SQUAREM point whose objective rose, so that the
    iteration went on from the previous plain value instead.
    ``objective_increased`` compares ``objective`` with that of the previous
    accepted (not rejected) evaluation, 1e-10 relative.
    """

    beta: np.ndarray
    beta_raw: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    objective: float
    ridge_used: bool
    objective_increased: bool = False
    kind: str = "plain"


@dataclass(frozen=True)
class GroupwiseFit:
    """Fitted groupwise index model.

    ``beta`` holds one unit-norm coefficient vector per group (singleton
    groups carry exactly 1.0); ``links`` one ``(grid, values)`` tabulation
    per group on 100 points spanning that group's observed index range.
    ``lam`` is the final signed multiplier diagonal (multiplier times
    constraint sign).  ``final_g``/``final_c`` are the final pooled
    normal-equation pieces, kept so the constrained step can be audited.
    ``beta``, ``lam``, ``final_g``, ``final_c`` and ``converged`` all come
    from the one map evaluation that produced ``beta``: the last accepted
    record of ``trace``.  That is ``trace[-1]`` unless ``max_iter`` ended
    the iteration right after a rejected extrapolation.  ``iterations``
    counts map evaluations, ``len(trace)``.
    ``backfit_converged`` is false when the link backfit stopped at its sweep
    cap; ``link_fallback_rows`` counts, per group, the training and grid
    points where a link smoother fell back to local-constant weights;
    ``constraint_solver_capped`` is true when any sign-constrained step
    stopped at its step cap and returned its last iterate.
    """

    beta: tuple[np.ndarray, ...]
    links: tuple[tuple[np.ndarray, np.ndarray], ...]
    lam: np.ndarray
    iterations: int
    converged: bool
    r_squared: float
    trace: tuple[IterationRecord, ...]
    ridge_flagged: bool
    bandwidths: tuple[float, ...]
    final_g: np.ndarray
    final_c: np.ndarray
    backfit_converged: bool = True
    link_fallback_rows: tuple[int, ...] = ()
    constraint_solver_capped: bool = False


def kernel_weight(u, h) -> np.ndarray:
    """Product Gaussian kernel: ``prod_s pdf(u[..., s] / h[s]) / h[s]``.

    ``u`` may be a single displacement vector or any array whose last axis
    runs over index dimensions; ``h`` must be positive, one entry per
    dimension.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or not h.size or u.shape[-1] != h.size:
        raise ValueError(f"bandwidth shape {h.shape} does not match u shape {u.shape}")
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("bandwidths must be positive and finite")
    # from a zero anchor the displacements are ``v`` itself, since
    # ``x - 0.0 == x`` bit for bit (``-0.0`` too); ``[()]`` returns one weight as a scalar
    v = u.reshape(-1, h.size)
    sq, z = np.empty((1, len(v))), np.empty((1, len(v)))
    w = _kernel_matrix(np.zeros((1, h.size)), v, h, sq, z) / _kernel_norm(h)
    return w.reshape(u.shape[:-1])[()]


def _kernel_norm(h: np.ndarray) -> float:
    """``prod(h) (2 pi)^(S/2)``, over which :func:`_kernel_matrix`'s weights are a density."""
    return np.prod(h) * _SQRT_2PI ** h.shape[0]


def _kernel_matrix(anchors: np.ndarray, v: np.ndarray, h: np.ndarray, sq, z):
    """``kernel_weight(v[j] - anchors[i], h) * _kernel_norm(h)``, one row per anchor.

    The elementwise kernel of :func:`kernel_weight` and the link smoothers
    (:func:`_smoother_matrix`): each weight carries only its own pair's
    rounding.  The iterations' moment pass expands the exponent instead
    (:func:`_kernel_moments`).

    ``sq`` and ``z`` are ``len(anchors)×len(v)`` buffers: the weights are
    written into ``sq`` and ``z`` is scratch (unwritten for one dimension).  The
    squared scaled displacements are added in order of index dimension, in
    place, so no index-dimension axis and no temporary is built.  Returns ``sq``.
    """
    for s, hs in enumerate(h):
        term = sq if s == 0 else z
        np.subtract(v[None, :, s], anchors[:, None, s], out=term)
        term /= hs
        term *= term
        if s:
            sq += z
    sq *= -0.5
    np.exp(sq, out=sq)
    return sq


def _weighted_sums(w: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """``out[i, k] = sum_j w[i, j] rows[k, j]``, into ``out`` when it is given:
    a BLAS product, run on one thread under the pin that :func:`fit` and every
    pooled pass hold, so its bytes do not depend on the BLAS thread count.
    Where no pin is available (:func:`covclust._pool.can_pin_blas` is false),
    the sums run in numpy's own ``einsum`` loop, whose bytes never depend on
    it, at about a fifth of the speed.
    """
    if _pool.can_pin_blas():
        return np.matmul(w, rows.T, out=out)
    return np.einsum("ij,kj->ik", w, rows, out=out)


def _kernel_moments(v: np.ndarray, h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_weighted_sums(W, rows)`` for the weights ``W[i, j] = kernel_weight(v[j] - v[i], h)``.

    The exponent is expanded as a dot product.  With ``u = (v - mean v) / h``
    per index dimension,

        -1/2 |u_j - u_i|^2 - log norm = u_i·u_j - |u_i|^2/2 - |u_j|^2/2 - log norm,

    which is row ``i`` of ``A = [u, -|u|^2/2, 1]`` dotted with row ``j`` of
    ``B = [u, 1, -|u|^2/2 - log norm]``.  So a block of ``W``'s rows is
    ``exp(A[block] B')``: one :func:`_weighted_sums` product of S + 2 terms
    per weight and one ``exp``.  The cancellation leaves each weight within
    about ``5 eps (1 + max|u|^2)`` of the elementwise :func:`kernel_weight`,
    relative; centring keeps ``|u|`` to a few bandwidths' worth.

    ``W`` is built and summed a block of anchor rows at a time
    (:func:`_each_row_block`), so a worker holds one block×T buffer of
    weights whatever T is.

    Each block is built and summed by :func:`_weighted_sums` calls of the
    same shapes whichever worker takes it, so the result is the same bytes
    at any worker count.  A BLAS product's bytes can depend on its row count,
    so they are those of the same blocks built and summed one by one, not
    always those of one product over the whole matrix.
    """
    t = v.shape[0]
    out = np.empty((t, rows.shape[0]))
    u = (v - v.mean(axis=0)) / h
    half_sq = -0.5 * np.einsum("ts,ts->t", u, u)
    ones = np.ones(t)
    a = np.column_stack([u, half_sq, ones])
    b = np.column_stack([u, ones, half_sq - np.log(_kernel_norm(h))])

    def block(part, buf):
        w = _weighted_sums(a[part], b, out=buf)
        np.exp(w, out=w)
        _weighted_sums(w, rows, out=out[part])

    _each_row_block(t, t, block)
    return out


def _each_row_block(n: int, t: int, block) -> None:
    """``block(part, buf)`` on each slice ``part`` of ``_KERNEL_BLOCK_ROWS`` rows
    of ``range(n)``, shared among up to ``_KERNEL_MAX_WORKERS`` threads by
    :func:`covclust._pool.each_block`; ``buf`` is the first ``len(part)`` rows
    of the worker's one block×``t`` buffer."""
    size = _KERNEL_BLOCK_ROWS

    def make_worker():
        buf = np.empty((min(size, n), t))
        return lambda i: block(slice(i * size, (i + 1) * size), buf[: min(size, n - i * size)])

    _pool.each_block(-(-n // size), make_worker, _KERNEL_MAX_WORKERS)


def _moment_rows(cols: np.ndarray) -> np.ndarray:
    """Rows ``[1, x, x_k x_l for k <= l]`` of the T×d ``cols``, whose kernel sums are moments."""
    t, d = cols.shape
    upper = np.triu_indices(d)
    rows = np.empty((1 + d + len(upper[0]), t))
    rows[0] = 1.0
    rows[1 : d + 1] = cols.T
    rows[d + 1 :] = cols.T[upper[0]] * cols.T[upper[1]]
    return rows


def _spread_about_anchors(m0, m1, m2, x):
    """``sum_j w_ij (x_j - x_i)(x_j - x_i)'`` from the moments (the moment identity)."""
    cross = x[:, :, None] * m1[:, None, :]
    outer = x[:, :, None] * x[:, None, :]
    return m2 - (cross + cross.transpose(0, 2, 1)) + m0[:, None, None] * outer


def _initial_direction(xc: np.ndarray, yc: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Starting coefficients for one multi-variable group, from centred columns.

    The leading direction of the cross-covariance between the group's
    variables and the response, with each sign-constrained coordinate folded
    onto its feasible side.  When that cross-covariance is statistically
    indistinguishable from noise (as happens when the group's link is even),
    fall back to the dominant eigenvector of the response-weighted second
    moment of the group, folded the same way.
    """
    t, k = xc.shape
    v = xc.T @ yc / t
    # ~2-sigma noise yardstick for each cross-covariance entry
    noise = 4.0 * k * float(np.mean(xc * xc)) * float(np.mean(yc * yc)) / t
    if float(v @ v) < noise:
        hess = (xc * yc[:, None]).T @ xc / t
        hess = (hess + hess.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(hess)
        v = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
    return _unit_direction(np.where(signs != 0, signs * np.abs(v), v), signs)


def _unit_direction(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm; a group whose direction vanished (norm below
    1e-12) restarts from equal weights, each constrained one on its feasible side."""
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        v = np.where(signs != 0, signs.astype(float), 1.0)
        norm = float(np.linalg.norm(v))
    return v / norm


def _solve_with_guard(g: np.ndarray, rhs: np.ndarray, ridge: float):
    """Solve ``g x = rhs``; fall back to a ridge-stabilized system when needed."""
    try:
        x = np.linalg.solve(g, rhs)
        ok = np.all(np.isfinite(x)) and float(
            np.linalg.norm(g @ x - rhs)
        ) <= 1e-6 * (1.0 + float(np.linalg.norm(rhs)))
    except np.linalg.LinAlgError:
        ok = False
        x = None
    if ok:
        return x, False
    x = np.linalg.solve(g + ridge * np.eye(g.shape[0]), rhs)
    return x, True


def _sign_constrained_solve(
    g: np.ndarray, c: np.ndarray, d: np.ndarray, mask: np.ndarray, ridge: float
):
    """Minimize ``0.5 b'Gb - c'b`` subject to ``d_k b_k >= 0`` on masked coords.

    Active-set scheme: repeatedly solve with the active coordinates pinned to
    zero, move the worst sign violator into the active set, and release any
    active coordinate whose multiplier turns negative.  At the solution the
    multipliers satisfy ``G b - c = diag(lam * d)`` with ``lam >= 0`` and
    ``lam_k b_k = 0`` exactly.

    Returns ``(beta, lam, zeta, used_ridge, capped)`` where ``zeta`` is the
    unconstrained solution and ``capped`` says that the step cap was reached
    and ``beta``/``lam`` are the last iterate, not a verified solution.
    """
    k = len(c)
    used_ridge = False

    def solve_free(active: np.ndarray):
        nonlocal used_ridge
        beta = np.zeros(k)
        free = np.flatnonzero(~active)
        if free.size:
            sol, r = _solve_with_guard(g[np.ix_(free, free)], c[free], ridge)
            used_ridge = used_ridge or r
            beta[free] = sol
        return beta

    active = np.zeros(k, dtype=bool)
    zeta = solve_free(active)
    release_tol = 1e-12 * (1.0 + float(np.max(np.abs(c))) if k else 1.0)
    lam = np.zeros(k)
    for _ in range(_ACTIVE_SET_STEPS_PER_COEF * k + _ACTIVE_SET_EXTRA_STEPS):
        # with no coordinate pinned, the system is the unconstrained one
        beta = solve_free(active) if active.any() else zeta
        # pin the worst violator, else release the most negative multiplier;
        # argmin returns the first minimum, so ties go to the lowest index
        signed = d * beta
        violators = mask & ~active & (signed < 0.0)
        if violators.any():
            active[np.argmin(np.where(violators, signed, np.inf))] = True
            continue
        lam = np.where(active, d * (g @ beta - c), 0.0)
        negative = lam < -release_tol
        if negative.any():
            active[np.argmin(np.where(negative, lam, np.inf))] = False
            continue
        lam[lam < 0.0] = 0.0
        return beta, lam, zeta, used_ridge, False
    return beta, lam, zeta, used_ridge, True


def _bandwidths(v: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidth of each index column of ``v``; 1 where it is degenerate."""
    t, s = v.shape
    sd = v.std(axis=0, ddof=1)
    h = 1.06 * sd * t ** (-1.0 / (4.0 + s))
    h[~np.isfinite(h) | (h <= 0.0)] = 1.0
    return h


def _local_linear_surface(m0, wy, first, spread, wxy, b):
    """Fitted level and per-group slope at every anchor, from :func:`_iteration_step`'s sums.

    At each anchor ``i`` this solves the kernel-weighted least-squares fit of
    ``y_j`` on ``(1, v_j - v_i)`` with weights ``w[i, j]``, returning the
    intercepts (fitted values, centred like ``y``) and the slope matrix.  The
    indices ``v = X b`` take their sums about each anchor from ``X``'s,
    projected by ``b``: ``first b``, ``b' spread b`` and ``wxy b``.
    """
    t, k = first.shape
    s = b.shape[1]
    # b' spread_i b at every anchor i, as two products over the stacked anchor
    # rows; the second gives it transposed, which the symmetrisation undoes
    sb = _weighted_sums(spread.reshape(t * k, k), b.T)
    vv = _weighted_sums(sb.reshape(t, k, s).transpose(0, 2, 1).reshape(t * s, k), b.T)
    vv = vv.reshape(t, s, s)
    a = np.empty((t, s + 1, s + 1))
    a[:, 0, 0] = m0
    a[:, 0, 1:] = a[:, 1:, 0] = np.einsum("ik,ks->is", first, b)
    a[:, 1:, 1:] = (vv + vv.transpose(0, 2, 1)) / 2.0
    rhs = np.column_stack([wy, np.einsum("ik,ks->is", wxy, b)])
    jitter = 1e-12 * np.einsum("ikk->i", a)
    a = a + jitter[:, None, None] * np.eye(s + 1)[None, :, :]
    coef = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    return coef[:, 0], coef[:, 1:]


def _iteration_step(vc, h, rows, xc, b, group_of):
    """Level, slopes and the pooled ``G``, ``c``, ``e0``, ``sum(w)`` at indices ``vc = xc b``.

    One pass of the kernel weights ``w`` (bandwidths ``h``) over ``rows``,
    the ``_moment_rows`` of the centred ``[xc, y]``, gives ``M0``, ``M1`` and
    ``M2`` (each product pair summed once and mirrored, so ``M2`` is exactly
    symmetric), and from them the sums about each anchor ``i`` of ``x_j -
    x_i``, ``(x_j - x_i)(x_j - x_i)'`` (the spread ``C_i``) and ``(x_j -
    x_i) y_j``.  The pooled regressors are ``r_ijk = a_ik (x_jk - x_ik)``,
    where ``a_ik`` is anchor ``i``'s slope for the group holding coefficient
    ``k``, with weights ``w_ij`` and targets ``y_j - level_i``.  ``G = sum_i
    (a_i a_i') ∘ C_i``, and ``c`` and the weighted sum of squared targets
    ``e0`` follow from the same sums, so the pooled criterion at any ``b``
    is ``(b'Gb - 2c'b + e0) / sum(w)``.
    """
    t, k = xc.shape
    d = k + 1
    upper = np.triu_indices(d)
    m = _kernel_moments(vc, h, rows)
    m0, m1, m2 = m[:, 0], m[:, 1 : d + 1], np.empty((t, d, d))
    m2[:, upper[0], upper[1]] = m2[:, upper[1], upper[0]] = m[:, d + 1 :]
    first = m1[:, :k] - m0[:, None] * xc
    spread = _spread_about_anchors(m0, m1[:, :k], m2[:, :k, :k], xc)
    wxy = m2[:, :k, k] - xc * m1[:, k : k + 1]
    level, slope = _local_linear_surface(m0, m1[:, k], first, spread, wxy, b)
    a = slope[:, group_of]
    # (k, l) and (l, k) sum the same products in order: G is exactly symmetric
    g = np.einsum("ik,il,ikl->kl", a, a, spread)
    c = np.einsum("ik,ik->k", a, wxy - level[:, None] * first)
    e0 = float(np.sum(m2[:, k, k] - 2.0 * level * m1[:, k] + level * level * m0))
    return level, slope, g, c, e0, float(np.sum(m0))


def _normalize_groups(beta_cat: np.ndarray, slices, d: np.ndarray, mask: np.ndarray):
    """Per-group renormalization and orientation; returns the new concatenation."""
    out = beta_cat.copy()
    for sl in slices:
        if sl.stop - sl.start == 1:
            out[sl] = 1.0
            continue
        seg = _unit_direction(out[sl], d[sl])
        constrained = mask[sl] & (seg != 0.0)
        if not np.any(constrained):
            # orientation is free: make the largest coefficient positive
            pivot = int(np.argmax(np.abs(seg)))
            if seg[pivot] < 0.0:
                seg = -seg
        out[sl] = seg
    return out


def _squarem(coefficient_map, project, beta, tolerance, max_iter):
    """Fixed point of ``coefficient_map`` by squared extrapolation (SQUAREM).

    ``coefficient_map(b)`` returns ``(F(b), record, state)``, ``record`` an
    :class:`IterationRecord`.  Each cycle from ``b0`` evaluates ``b1 =
    F(b0)`` and ``b2 = F(b1)``, sets ``r = b1 - b0``, ``v = b2 - 2 b1 + b0``
    and ``alpha = min(-|r|/|v|, -1)``, and evaluates ``b3 =
    F(project(b0 - 2 alpha r + alpha^2 v))`` (Varadhan & Roland, Scand. J.
    Statist. 35, 2008).  The next cycle starts from ``b3``, or from ``b2``
    when ``b3``'s objective is more than 1e-10 relative above ``b2``'s (the
    extrapolation is rejected); with ``v = 0`` it starts from ``b2`` with
    no extrapolation.  The iteration stops as soon as an evaluation moves its
    input by less than ``tolerance`` in every coordinate, before any
    objective is compared, or after ``max_iter`` evaluations.

    Returns ``(record, state, trace, converged)``: the record, state and
    convergence of the last accepted evaluation, whose ``record.beta`` is
    the fixed point, and every evaluation's record with its ``kind`` and
    ``objective_increased`` set.
    """
    trace, accepted = [], None

    def evaluate(b, kind):
        nonlocal accepted
        b_next, record, state = coefficient_map(b)
        prev = accepted[0].objective if accepted else None
        increased = prev is not None and record.objective > prev + 1e-10 * max(1.0, abs(prev))
        converged = float(np.max(np.abs(b_next - b))) < tolerance
        rejected = kind == "extrapolated" and increased and not converged
        record = replace(
            record, kind="rejected" if rejected else kind, objective_increased=bool(increased)
        )
        trace.append(record)
        if not rejected:
            accepted = (record, state, converged)
        return b_next, rejected, converged or len(trace) == max_iter

    b0 = beta
    while True:
        b1, _, stop = evaluate(b0, "plain")
        if stop:
            break
        b2, _, stop = evaluate(b1, "plain")
        if stop:
            break
        r, v = b1 - b0, b2 - 2.0 * b1 + b0
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            b0 = b2
            continue
        alpha = min(-float(np.linalg.norm(r)) / v_norm, -1.0)
        b3, rejected, stop = evaluate(
            project(b0 - 2.0 * alpha * r + alpha * alpha * v), "extrapolated"
        )
        if stop:
            break
        b0 = b2 if rejected else b3
    record, state, converged = accepted
    return record, state, tuple(trace), converged


def fit(panel: TimeSeriesPanel, spec: ModelSpec, cfg: FitConfig = FitConfig()) -> GroupwiseFit:
    """Estimate the groupwise index model described by ``spec`` on ``panel``.

    The coefficient map, local-linear surface fitting followed by the
    sign-constrained pooled coefficient update, is driven by :func:`_squarem`
    until one evaluation moves the coefficients by less than
    ``cfg.tolerance`` or ``cfg.max_iter`` evaluations are spent; convergence
    status and the record of every evaluation are part of the result.  After the
    coefficient iteration, per-group links are tabulated by backfitting
    one-dimensional local-linear smoothers on the final indices, and
    ``r_squared`` is computed from the tabulated model's predictions on the
    training panel.
    """
    if not 0 <= spec.response < panel.n_series:
        raise ValueError(f"response column index out of range: {spec.response}")
    for g in spec.groups:
        if min(g) < 0 or max(g) >= panel.n_series:
            raise ValueError(f"group column index out of range: {list(g)}")
    x = panel.values
    y = x[:, spec.response]
    t = panel.n_periods
    groups = [np.array(g, dtype=int) for g in spec.groups]
    n_groups, k_total = spec.n_groups, spec.n_coefficients
    sizes = [len(g) for g in groups]
    if t <= k_total:
        raise InsufficientDataError(
            f"need more periods than coefficients: T={t}, coefficients={k_total}"
        )
    # the centred response would be exactly zero, and so would every slope
    # and the pooled system
    yc = y - y.mean()
    if float(np.sum(yc**2)) == 0.0:
        raise DegenerateResponseError("response has zero variation")

    offsets = np.cumsum([0] + sizes)
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(n_groups)]
    cols = np.concatenate(groups)
    group_of = np.repeat(np.arange(n_groups), sizes)
    d = np.array([spec.sign_constraints.get(int(col), 0) for col in cols], dtype=float)
    # singleton coefficients are pinned to 1, so their sign is carried by the
    # link and the constraint machinery leaves them alone
    mask = (d != 0) & (np.array(sizes)[group_of] > 1)

    # loop invariants: centred columns, their moment rows, the layout of b
    xc = x[:, cols] - x[:, cols].mean(axis=0)
    rows = _moment_rows(np.column_stack([xc, yc]))
    in_group = group_of[:, None] == np.arange(n_groups)

    solver_capped = False

    def coefficient_map(beta):
        """The normalized sign-constrained pooled solution at ``beta``'s indices."""
        nonlocal solver_capped
        b = np.where(in_group, beta[:, None], 0.0)
        vc = np.einsum("tk,ks->ts", xc, b)
        *_, g_mat, c_vec, e0, weight_sum = _iteration_step(
            vc, _bandwidths(vc), rows, xc, b, group_of
        )
        beta_raw, lam, zeta, used_ridge, capped = _sign_constrained_solve(
            g_mat, c_vec, d, mask, _RIDGE_SCALE * float(np.trace(g_mat))
        )
        solver_capped = solver_capped or capped
        quad = np.einsum("k,kl,l->", beta_raw, g_mat, beta_raw)
        objective = float(quad - 2.0 * np.einsum("k,k->", c_vec, beta_raw) + e0) / weight_sum
        beta_new = _normalize_groups(beta_raw, slices, d, mask)
        record = IterationRecord(
            beta=beta_new.copy(),
            beta_raw=beta_raw.copy(),
            zeta=zeta.copy(),
            lam=lam.copy(),
            objective=objective,
            ridge_used=bool(used_ridge),
        )
        return beta_new, record, (g_mat, c_vec)

    # the pooled passes pin BLAS themselves; this pins the calls between them
    with _pool.one_blas_thread():
        beta_cat = np.empty(k_total)
        for sl in slices:
            single = sl.stop - sl.start == 1
            beta_cat[sl] = 1.0 if single else _initial_direction(xc[:, sl], yc, d[sl])
        final, (g_mat, c_vec), trace, converged = _squarem(
            coefficient_map,
            lambda beta: _normalize_groups(beta, slices, d, mask),
            beta_cat,
            cfg.tolerance,
            cfg.max_iter,
        )
        v = np.column_stack([_group_index(x, g, final.beta[sl]) for g, sl in zip(groups, slices)])
        h = _bandwidths(v)
        links, backfit_converged, fallback_rows = _backfit_links(v, y, h, _LINK_GRID_SIZE)

    provisional = GroupwiseFit(
        beta=tuple(final.beta[sl].copy() for sl in slices),
        links=links,
        lam=final.lam * d,
        iterations=len(trace),
        converged=converged,
        r_squared=float("nan"),
        trace=trace,
        ridge_flagged=any(rec.ridge_used for rec in trace),
        bandwidths=tuple(float(b) for b in h),
        final_g=g_mat,
        final_c=c_vec,
        backfit_converged=backfit_converged,
        link_fallback_rows=fallback_rows,
        constraint_solver_capped=solver_capped,
    )
    r2 = explained_variation(provisional, panel, spec)
    return replace(provisional, r_squared=float(r2))


def _smoother_matrix(v_train: np.ndarray, h: float, v_eval: np.ndarray):
    """Local-linear smoother (Gaussian weights, bandwidth ``h``) as a matrix,
    and the number of its rows that fell back to local-constant weights.

    Row ``i`` holds the weights that give the fitted value at ``v_eval[i]``
    from targets observed at ``v_train``: ``sum_m (s2 - s1 d_im) w_im / det``
    with ``d_im = v_train[m] - v_eval[i]``, or the local-constant weights
    ``w_im / s0`` where the local-linear system is near-singular.  The weights
    are the iterations' un-normalized :func:`_kernel_matrix`: the norm cancels.

    The rows are built a block at a time (:func:`_each_row_block`), straight
    into the output, with the block's buffer for the displacements.  Every
    row gets the same elementwise operations and row-wise sums in any block,
    so the matrix is the same bytes at any block size and worker count.
    """
    n, t = len(v_eval), len(v_train)
    out = np.empty((n, t))
    h_arr = np.array([h])
    fallback = np.empty(n, dtype=bool)

    def block(part, buf):
        w = _kernel_matrix(v_eval[part, None], v_train[:, None], h_arr, out[part], buf)
        dcol = np.subtract(v_train[None, :], v_eval[part, None], out=buf)
        s0 = w.sum(axis=1)
        s1 = np.einsum("ij,ij->i", w, dcol)
        s2 = np.einsum("ij,ij,ij->i", w, dcol, dcol)
        det = s0 * s2 - s1 * s1
        safe = det > 1e-12 * (s0 * s0 * h * h + 1e-300)
        dcol *= -s1[:, None]
        dcol += s2[:, None]
        dcol /= np.where(safe, det, 1.0)[:, None]
        dcol[~safe] = (1.0 / np.maximum(s0, 1e-300))[~safe, None]
        w *= dcol
        fallback[part] = ~safe

    _each_row_block(n, t, block)
    return out, int(np.count_nonzero(fallback))


def _smooth(smoother: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``smoother @ target``, summed by ``_weighted_sums``."""
    return _weighted_sums(smoother, target[None, :])[:, 0]


def _backfit_links(v: np.ndarray, y: np.ndarray, h: np.ndarray, grid_size: int):
    """Tabulate one ridge function per index by backfitting 1-D smoothers.

    Component functions are centered over the training sample; the response
    mean is spread evenly across groups so the tabulated links sum to the
    fitted value without a separate intercept.  Each group's smoother is
    built once, on the training points and then the grid points, so a sweep
    is one matrix-vector product per group.  Returns the links, whether the
    sweeps converged, and each group's local-constant fallback rows.
    """
    t, s = v.shape
    ybar = float(y.mean())
    resid = y - ybar
    m = np.zeros((t, s))
    grids = [np.linspace(float(col.min()), float(col.max()), grid_size) for col in v.T]
    smoothers, fallback_rows = zip(
        *(_smoother_matrix(col, float(hj), np.append(col, grid))
          for col, hj, grid in zip(v.T, h, grids))
    )
    converged = False
    for _ in range(_BACKFIT_MAX_SWEEPS):
        delta = 0.0
        for j in range(s):
            partial = resid - m.sum(axis=1) + m[:, j]
            new = _smooth(smoothers[j][:t], partial)
            new = new - new.mean()
            delta = max(delta, float(np.max(np.abs(new - m[:, j]))))
            m[:, j] = new
        if delta < 1e-9 * (1.0 + float(np.std(y))):
            converged = True
            break
    links = []
    for j, grid in enumerate(grids):
        partial = resid - m.sum(axis=1) + m[:, j]
        mu = float(_smooth(smoothers[j][:t], partial).mean())
        vals = _smooth(smoothers[j][t:], partial) - mu + ybar / s
        grid.setflags(write=False)
        vals.setflags(write=False)
        links.append((grid, vals))
    return tuple(links), converged, fallback_rows


def _group_index(rows: np.ndarray, cols, beta: np.ndarray) -> np.ndarray:
    """One group's index of every row, summed coefficient by coefficient.

    A row's index then does not depend on how many rows come with it, and
    ``fit`` tabulates each link over exactly the indices ``predict`` sees.
    """
    v = rows[:, cols[0]] * beta[0]
    for col, b in zip(cols[1:], beta[1:]):
        v = v + rows[:, col] * b
    return v


def _eval_link(grid: np.ndarray, vals: np.ndarray, v: np.ndarray):
    """Link values at indices ``v`` and which of them lie beyond the grid.

    Beyond the tabulated range the link is extended with its boundary slope.
    """
    below = v < grid[0]
    above = v > grid[-1]
    out = np.interp(v, grid, vals)
    low_slope = (vals[1] - vals[0]) / (grid[1] - grid[0])
    high_slope = (vals[-1] - vals[-2]) / (grid[-1] - grid[-2])
    out = np.where(below, vals[0] + low_slope * (v - grid[0]), out)
    out = np.where(above, vals[-1] + high_slope * (v - grid[-1]), out)
    return out, below | above


def predict(
    fit_result: GroupwiseFit,
    spec: ModelSpec,
    x,
    return_extrapolated: bool = False,
    allow_unconverged: bool = False,
):
    """Sum of tabulated links evaluated at the observation's group indices.

    ``x`` is one observation in panel column order, giving one value, or a
    2-D array with one observation per row, giving one value per row.
    Indices beyond a link's tabulated range are extended with the boundary
    slope; pass ``return_extrapolated=True`` to receive ``(value,
    extrapolated)`` and learn whether that happened (one flag per row for a
    2-D ``x``).  Each row's value is the same bytes as a 1-D call on that row.
    Unconverged fits are refused unless ``allow_unconverged=True``.
    """
    if not fit_result.converged and not allow_unconverged:
        raise ValueError("fit did not converge; pass allow_unconverged=True to override")
    x = np.asarray(x, dtype=float)
    needed = max(c for g in spec.groups for c in g)
    if x.ndim not in (1, 2) or x.shape[-1] <= needed:
        raise ValueError(
            f"observation must be a vector or rows covering column {needed}, got shape {x.shape}"
        )
    rows = x.reshape(-1, x.shape[-1])
    total = np.zeros(rows.shape[0])
    extrapolated = np.zeros(rows.shape[0], dtype=bool)
    for s, g in enumerate(spec.groups):
        val, ex = _eval_link(*fit_result.links[s], _group_index(rows, g, fit_result.beta[s]))
        total += val
        extrapolated |= ex
    if x.ndim == 1:
        total, extrapolated = float(total[0]), bool(extrapolated[0])
    if return_extrapolated:
        return total, extrapolated
    return total


def explained_variation(
    fit_result: GroupwiseFit, panel: TimeSeriesPanel, spec: ModelSpec
) -> float:
    """``1 - SSE/SST`` of the tabulated model's predictions on ``panel``."""
    y = panel.values[:, spec.response]
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateResponseError("response has zero variation")
    preds = predict(fit_result, spec, panel.values, allow_unconverged=True)
    sse = float(np.sum((y - preds) ** 2))
    return 1.0 - sse / sst


def fit_to_json_obj(fit_result: GroupwiseFit, spec: ModelSpec, labels) -> dict:
    """JSON-ready summary: per-group coefficients with labels, multipliers, diagnostics."""
    groups = []
    for s, g in enumerate(spec.groups):
        groups.append(
            {
                "variables": [labels[c] for c in g],
                "beta": [float(b) for b in fit_result.beta[s]],
            }
        )
    return {
        "groups": groups,
        "lambda": [float(v) for v in fit_result.lam],
        "iterations": int(fit_result.iterations),
        "converged": bool(fit_result.converged),
        "r_squared": float(fit_result.r_squared),
        "ridge_flagged": bool(fit_result.ridge_flagged),
        "backfit_converged": bool(fit_result.backfit_converged),
        "link_fallback_rows": [int(n) for n in fit_result.link_fallback_rows],
        "constraint_solver_capped": bool(fit_result.constraint_solver_capped),
    }


def links_to_csv(fit_result: GroupwiseFit, path) -> None:
    """Tabulated links, one row per grid point: ``group, v, g_hat``."""
    rows = [
        [s + 1, gv, lv]
        for s, (grid, vals) in enumerate(fit_result.links)
        for gv, lv in zip(grid.tolist(), vals.tolist())
    ]
    _write_labeled_csv(["group", "v", "g_hat"], rows, path)
