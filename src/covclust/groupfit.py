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
groups to exactly 1 (their link absorbs scale and direction).

Every per-anchor kernel sum is taken in moment form.  For T×T weights ``W``
and columns ``X``,

    sum_j w_ij (x_j - x_i)(x_j - x_i)' = M2_i - x_i M1_i' - M1_i x_i' + M0_i x_i x_i'

with ``M0 = W 1``, ``M1 = W X`` and ``M2 = W (X ⊗ X)`` (Fan & Gijbels, *Local
Polynomial Modelling*, 1996).  The local-linear surface and the pooled normal
equations therefore need one T×T weight matrix applied to a few T-long
columns, never a T×T×K displacement tensor, and the fit's memory is O(S·T² +
T·K²) for S groups and K coefficients.  Columns are centred before their
moments are formed: the fit is invariant to such shifts, while the moment
form's rounding error grows with the square of a column's offset.  The same
moments give the pooled step's weighted sum of squared targets, so each
iteration's objective is read off the normal equations as
``(b'Gb - 2c'b + e0) / sum(w)`` without forming a T×T residual.  No sum
over observations goes to BLAS, whose blocking and summation order depend
on its thread count: such sums are ``np.einsum`` calls without ``optimize``,
which run numpy's own loops, so results are the same bytes at any BLAS
thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResponseError, InsufficientDataError
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


@dataclass(frozen=True)
class FitConfig:
    """Convergence controls of the coefficient iteration.

    The iteration stops once the largest coefficient change falls below
    ``tolerance``, or after ``max_iter`` iterations.  Bandwidths follow the
    rule of thumb (1.06 times the index standard deviation times
    ``T**(-1/(4+S))``, recomputed every iteration).
    """

    tolerance: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration: solutions, multipliers, and the step's objective.

    ``zeta`` is the unconstrained pooled solution, ``beta_raw`` the
    sign-constrained one, ``beta`` the renormalized state carried to the next
    iteration.  ``lam`` holds the nonnegative multipliers (zero wherever the
    unconstrained solution already had the right sign).  ``objective`` is
    the pooled kernel-weighted mean squared residual at ``beta_raw``,
    ``(b'Gb - 2c'b + e0) / sum(w)`` from the step's normal equations ``G``,
    ``c`` and weighted sum of squared targets ``e0``.
    """

    beta: np.ndarray
    beta_raw: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    objective: float
    objective_increased: bool
    ridge_used: bool


@dataclass(frozen=True)
class GroupwiseFit:
    """Fitted groupwise index model.

    ``beta`` holds one unit-norm coefficient vector per group (singleton
    groups carry exactly 1.0); ``links`` one ``(grid, values)`` tabulation
    per group on 100 points spanning that group's observed index range.
    ``lam`` is the final signed multiplier diagonal (multiplier times
    constraint sign).  ``final_g``/``final_c`` are the last pooled
    normal-equation pieces, kept so the constrained step can be audited.
    ``backfit_converged`` is false when the link backfit stopped at its sweep
    cap; ``constraint_solver_capped`` is true when any sign-constrained step
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
    constraint_solver_capped: bool = False


def kernel_weight(u, h) -> np.ndarray:
    """Product Gaussian kernel: ``prod_s pdf(u[..., s] / h[s]) / h[s]``.

    ``u`` may be a single displacement vector or any array whose last axis
    runs over index dimensions; ``h`` must be positive, one entry per
    dimension.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or u.shape[-1] != h.shape[0]:
        raise ValueError(f"bandwidth shape {h.shape} does not match u shape {u.shape}")
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("bandwidths must be positive and finite")
    return _product_gaussian((u[..., s] for s in range(h.shape[0])), h)


def _product_gaussian(displacements, h: np.ndarray):
    """``kernel_weight`` from one displacement array per index dimension.

    The squared scaled displacements are added one dimension at a time, in
    order, so no array with an index-dimension axis is built.
    """
    sq = None
    for disp, hs in zip(displacements, h):
        z = disp / hs
        z *= z
        if sq is None:
            sq = z
        else:
            sq += z
        del disp, z  # before the next displacement is built
    return np.exp(-0.5 * sq) / (np.prod(h) * _SQRT_2PI ** h.shape[0])


def _kernel_matrix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """T×T weights ``kernel_weight(v[j] - v[i], h)``, one T×T slice per dimension."""
    return _product_gaussian((v[None, :, s] - v[:, None, s] for s in range(v.shape[1])), h)


def _weighted_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i, k] = sum_j w[i, j] rows[k, j]`` in numpy's own loop, not BLAS."""
    return np.einsum("ij,kj->ik", w, rows)


def _kernel_moments(w: np.ndarray, cols: np.ndarray):
    """Kernel moments ``M0 = W 1``, ``M1 = W X`` and ``M2 = W (X ⊗ X)``.

    ``cols`` is T×d.  Returns ``M0`` (T), ``M1`` (T×d) and ``M2`` (T×d×d,
    exactly symmetric: each product pair is summed once and mirrored).
    """
    t, d = cols.shape
    upper = np.triu_indices(d)
    rows = np.empty((1 + d + len(upper[0]), t))
    rows[0] = 1.0
    rows[1 : d + 1] = cols.T
    rows[d + 1 :] = cols.T[upper[0]] * cols.T[upper[1]]
    m = _weighted_sums(w, rows)
    m2 = np.empty((t, d, d))
    m2[:, upper[0], upper[1]] = m[:, d + 1 :]
    m2[:, upper[1], upper[0]] = m[:, d + 1 :]
    return m[:, 0], m[:, 1 : d + 1], m2


def _spread_about_anchors(m0, m1, m2, x):
    """``sum_j w_ij (x_j - x_i)(x_j - x_i)'`` from the moments (the moment identity)."""
    cross = x[:, :, None] * m1[:, None, :]
    outer = x[:, :, None] * x[:, None, :]
    return m2 - (cross + cross.transpose(0, 2, 1)) + m0[:, None, None] * outer


def _initial_direction(xg: np.ndarray, y: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Starting coefficients for one multi-variable group.

    The leading direction of the cross-covariance between the group's
    variables and the response, with each sign-constrained coordinate folded
    onto its feasible side.  When that cross-covariance is statistically
    indistinguishable from noise (as happens when the group's link is even),
    fall back to the dominant eigenvector of the response-weighted second
    moment of the group, folded the same way.
    """
    t, k = xg.shape
    xc = xg - xg.mean(axis=0)
    yc = y - y.mean()
    v = xc.T @ yc / t
    # ~2-sigma noise yardstick for each cross-covariance entry
    noise = 4.0 * k * float(np.mean(xc * xc)) * float(np.mean(yc * yc)) / t
    if float(v @ v) < noise:
        hess = (xc * yc[:, None]).T @ xc / t
        hess = (hess + hess.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(hess)
        v = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
    out = np.where(signs != 0, signs * np.abs(v), v)
    norm = float(np.linalg.norm(out))
    if norm < 1e-12:
        out = np.where(signs != 0, signs.astype(float), 1.0)
        norm = float(np.linalg.norm(out))
    return out / norm


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

    def solve_free(active: set):
        nonlocal used_ridge
        beta = np.zeros(k)
        free = [i for i in range(k) if i not in active]
        if free:
            sub = g[np.ix_(free, free)]
            sol, r = _solve_with_guard(sub, c[free], ridge)
            used_ridge = used_ridge or r
            beta[free] = sol
        return beta

    zeta = solve_free(set())
    release_tol = 1e-12 * (1.0 + float(np.max(np.abs(c))) if k else 1.0)
    active: set = set()
    beta = zeta
    lam = np.zeros(k)
    for _ in range(_ACTIVE_SET_STEPS_PER_COEF * k + _ACTIVE_SET_EXTRA_STEPS):
        beta = solve_free(active)
        signed = d * beta
        violators = [
            i for i in range(k) if mask[i] and i not in active and signed[i] < 0.0
        ]
        if violators:
            active.add(min(violators, key=lambda i: signed[i]))
            continue
        grad = g @ beta - c
        lam = np.zeros(k)
        for i in active:
            lam[i] = d[i] * grad[i]
        negative = [i for i in active if lam[i] < -release_tol]
        if negative:
            active.remove(min(negative, key=lambda i: lam[i]))
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


def _local_linear_surface(v: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Fitted level and per-dimension slope at every observation.

    At each anchor ``i`` this solves the kernel-weighted least-squares fit of
    ``y_j`` on ``(1, v_j - v_i)`` with weights ``w[i, j]``, returning the
    intercepts (current fitted values) and the slope matrix.
    """
    t, s = v.shape
    vc = v - v.mean(axis=0)
    ybar = float(y.mean())
    m0, m1, m2 = _kernel_moments(w, np.column_stack([vc, y - ybar]))
    wy = m1[:, s]
    a = np.empty((t, s + 1, s + 1))
    a[:, 0, 0] = m0
    a[:, 0, 1:] = a[:, 1:, 0] = m1[:, :s] - m0[:, None] * vc
    a[:, 1:, 1:] = _spread_about_anchors(m0, m1[:, :s], m2[:, :s, :s], vc)
    rhs = np.column_stack([wy, m2[:, :s, s] - vc * wy[:, None]])
    jitter = 1e-12 * np.einsum("ikk->i", a)
    a = a + jitter[:, None, None] * np.eye(s + 1)[None, :, :]
    coef = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    return coef[:, 0] + ybar, coef[:, 1:]


def _pooled_normal_equations(w, x, slices, slope, y, level):
    """``G``, ``c``, ``e0`` and ``sum(w)`` of the pooled step, from kernel moments.

    The pooled regressors are ``r_ijk = a_ik (x_jk - x_ik)``, where ``a_ik``
    is anchor ``i``'s slope for the group holding coefficient ``k``, with
    weights ``w_ij`` and targets ``y_j - level_i``.  ``G = sum_i (a_i a_i')
    ∘ C_i`` with ``C_i`` the spread about anchor ``i``, and ``c`` and the
    weighted sum of squared targets ``e0`` follow from the same moments, so
    the pooled criterion at any ``b`` is ``(b'Gb - 2c'b + e0) / sum(w)``.
    """
    k = x.shape[1]
    xc = x - x.mean(axis=0)
    ybar = float(y.mean())
    lc = level - ybar
    a = slope[:, np.repeat(np.arange(len(slices)), [sl.stop - sl.start for sl in slices])]
    m0, m1, m2 = _kernel_moments(w, np.column_stack([xc, y - ybar]))
    spread = _spread_about_anchors(m0, m1[:, :k], m2[:, :k, :k], xc)
    g = np.einsum("ik,il,ikl->kl", a, a, spread)
    g = (g + g.T) / 2.0
    first = m1[:, :k] - m0[:, None] * xc
    wxy = m2[:, :k, k] - xc * m1[:, k : k + 1]
    c = np.einsum("ik,ik->k", a, wxy - lc[:, None] * first)
    e0 = float(np.sum(m2[:, k, k] - 2.0 * lc * m1[:, k] + lc * lc * m0))
    return g, c, e0, float(np.sum(m0))


def _normalize_groups(beta_cat: np.ndarray, slices, d: np.ndarray, mask: np.ndarray):
    """Per-group renormalization and orientation; returns the new concatenation."""
    out = beta_cat.copy()
    for sl in slices:
        seg = out[sl]
        if sl.stop - sl.start == 1:
            out[sl] = 1.0
            continue
        norm = float(np.linalg.norm(seg))
        if norm < 1e-12:
            # fully zeroed group: restart from the feasible equal-weight point
            seg = np.where(d[sl] != 0, d[sl].astype(float), 1.0)
            norm = float(np.linalg.norm(seg))
        seg = seg / norm
        constrained = mask[sl] & (seg != 0.0)
        if not np.any(constrained):
            # orientation is free: make the largest coefficient positive
            pivot = int(np.argmax(np.abs(seg)))
            if seg[pivot] < 0.0:
                seg = -seg
        out[sl] = seg
    return out


def fit(panel: TimeSeriesPanel, spec: ModelSpec, cfg: FitConfig = FitConfig()) -> GroupwiseFit:
    """Estimate the groupwise index model described by ``spec`` on ``panel``.

    Iterates local-linear surface fitting and the sign-constrained pooled
    coefficient update until the largest coefficient change falls below
    ``cfg.tolerance`` or ``cfg.max_iter`` is reached; convergence status and
    the full per-iteration trace are part of the result.  After the
    coefficient iteration, per-group links are tabulated by backfitting
    one-dimensional local-linear smoothers on the final indices, and
    ``r_squared`` is computed from the tabulated model's predictions on the
    training panel.
    """
    x = panel.values
    y = x[:, spec.response]
    t = panel.n_periods
    groups = [np.array(g, dtype=int) for g in spec.groups]
    n_groups = len(groups)
    sizes = [len(g) for g in groups]
    k_total = sum(sizes)
    if t <= k_total:
        raise InsufficientDataError(
            f"need more periods than coefficients: T={t}, coefficients={k_total}"
        )
    # the centred response would be exactly zero, and so would every slope
    # and the pooled system
    if float(np.sum((y - y.mean()) ** 2)) == 0.0:
        raise DegenerateResponseError("response has zero variation")
    for g in groups:
        if np.any(g < 0) or np.any(g >= panel.n_series):
            raise ValueError(f"group column index out of range: {g.tolist()}")

    offsets = np.cumsum([0] + sizes)
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(n_groups)]
    d = np.zeros(k_total)
    for s, g in enumerate(groups):
        for pos, col in enumerate(g):
            d[offsets[s] + pos] = spec.sign_constraints.get(int(col), 0)
    # singleton coefficients are pinned to 1, so their sign is carried by the
    # link and the constraint machinery leaves them alone
    mask = (d != 0) & np.concatenate(
        [np.full(sz, sz > 1) for sz in sizes]
    )

    beta_cat = np.empty(k_total)
    for s, g in enumerate(groups):
        if sizes[s] == 1:
            beta_cat[slices[s]] = 1.0
        else:
            beta_cat[slices[s]] = _initial_direction(x[:, g], y, d[slices[s]])

    group_cols = [x[:, g] for g in groups]
    x_cat = np.column_stack(group_cols)
    trace = []
    converged = False
    iterations = 0
    prev_objective = None
    ridge_flagged = False
    solver_capped = False
    g_mat = np.zeros((k_total, k_total))
    c_vec = np.zeros(k_total)

    for it in range(cfg.max_iter):
        v = np.column_stack([group_cols[s] @ beta_cat[slices[s]] for s in range(n_groups)])
        h = _bandwidths(v)
        w = _kernel_matrix(v, h)
        level, slope = _local_linear_surface(v, y, w)
        g_mat, c_vec, e0, weight_sum = _pooled_normal_equations(
            w, x_cat, slices, slope, y, level
        )
        del w  # free it before the next iteration's kernel is built

        ridge = _RIDGE_SCALE * float(np.trace(g_mat))
        beta_raw, lam, zeta, used_ridge, capped = _sign_constrained_solve(
            g_mat, c_vec, d, mask, ridge
        )
        ridge_flagged = ridge_flagged or used_ridge
        solver_capped = solver_capped or capped

        quad = np.einsum("k,kl,l->", beta_raw, g_mat, beta_raw)
        objective = float(quad - 2.0 * np.einsum("k,k->", c_vec, beta_raw) + e0) / weight_sum
        increased = (
            prev_objective is not None
            and objective > prev_objective + 1e-10 * max(1.0, abs(prev_objective))
        )
        prev_objective = objective

        beta_new = _normalize_groups(beta_raw, slices, d, mask)
        delta = float(np.max(np.abs(beta_new - beta_cat)))
        trace.append(
            IterationRecord(
                beta=beta_new.copy(),
                beta_raw=beta_raw.copy(),
                zeta=zeta.copy(),
                lam=lam.copy(),
                objective=objective,
                objective_increased=bool(increased),
                ridge_used=bool(used_ridge),
            )
        )
        beta_cat = beta_new
        iterations = it + 1
        if delta < cfg.tolerance:
            converged = True
            break

    final_lam = trace[-1].lam if trace else np.zeros(k_total)
    v = np.column_stack([group_cols[s] @ beta_cat[slices[s]] for s in range(n_groups)])
    h = _bandwidths(v)
    links, backfit_converged = _backfit_links(v, y, h, _LINK_GRID_SIZE)

    betas = tuple(beta_cat[slices[s]].copy() for s in range(n_groups))
    provisional = GroupwiseFit(
        beta=betas,
        links=links,
        lam=final_lam * d,
        iterations=iterations,
        converged=converged,
        r_squared=float("nan"),
        trace=tuple(trace),
        ridge_flagged=ridge_flagged,
        bandwidths=tuple(float(b) for b in h),
        final_g=g_mat,
        final_c=c_vec,
        backfit_converged=backfit_converged,
        constraint_solver_capped=solver_capped,
    )
    r2 = explained_variation(provisional, panel, spec)
    object.__setattr__(provisional, "r_squared", float(r2))
    return provisional


def _smoother_matrix(v_train: np.ndarray, h: float, v_eval: np.ndarray) -> np.ndarray:
    """Local-linear smoother (Gaussian weights, bandwidth ``h``) as a matrix.

    Row ``i`` holds the weights that give the fitted value at ``v_eval[i]``
    from targets observed at ``v_train``: ``sum_m (s2 - s1 d_im) w_im / det``
    with ``d_im = v_train[m] - v_eval[i]``, or the local-constant weights
    ``w_im / s0`` where the local-linear system is near-singular.
    """
    dcol = v_train[None, :] - v_eval[:, None]
    w = dcol / h
    w *= w
    w *= -0.5
    np.exp(w, out=w)
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
    return w


def _smooth(smoother: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``smoother @ target``, summed by ``_weighted_sums``."""
    return _weighted_sums(smoother, target[None, :])[:, 0]


def _backfit_links(v: np.ndarray, y: np.ndarray, h: np.ndarray, grid_size: int):
    """Tabulate one ridge function per index by backfitting 1-D smoothers.

    Component functions are centered over the training sample; the response
    mean is spread evenly across groups so the tabulated links sum to the
    fitted value without a separate intercept.  Each group's smoother matrix
    is built once, so a sweep is one matrix-vector product per group.
    Returns the links and whether the sweeps converged before the cap.
    """
    t, s = v.shape
    ybar = float(y.mean())
    resid = y - ybar
    m = np.zeros((t, s))
    smoothers = [_smoother_matrix(v[:, j], float(h[j]), v[:, j]) for j in range(s)]
    converged = False
    for _ in range(_BACKFIT_MAX_SWEEPS):
        delta = 0.0
        for j in range(s):
            partial = resid - m.sum(axis=1) + m[:, j]
            new = _smooth(smoothers[j], partial)
            new = new - new.mean()
            delta = max(delta, float(np.max(np.abs(new - m[:, j]))))
            m[:, j] = new
        if delta < 1e-9 * (1.0 + float(np.std(y))):
            converged = True
            break
    links = []
    for j in range(s):
        partial = resid - m.sum(axis=1) + m[:, j]
        mu = float(_smooth(smoothers[j], partial).mean())
        grid = np.linspace(float(v[:, j].min()), float(v[:, j].max()), grid_size)
        vals = _smooth(_smoother_matrix(v[:, j], float(h[j]), grid), partial) - mu + ybar / s
        grid.setflags(write=False)
        vals.setflags(write=False)
        links.append((grid, vals))
    return tuple(links), converged


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
        beta = fit_result.beta[s]
        # coefficient by coefficient, so a row's index does not depend on
        # how many rows come with it
        v = rows[:, g[0]] * beta[0]
        for col, b in zip(g[1:], beta[1:]):
            v = v + rows[:, col] * b
        val, ex = _eval_link(*fit_result.links[s], v)
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
        "constraint_solver_capped": bool(fit_result.constraint_solver_capped),
    }


def links_to_csv(fit_result: GroupwiseFit, path) -> None:
    """Tabulated links, one row per grid point: ``group, v, g_hat``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "v", "g_hat"])
        for s, (grid, vals) in enumerate(fit_result.links):
            for gv, lv in zip(grid, vals):
                writer.writerow([s + 1, repr(float(gv)), repr(float(lv))])
