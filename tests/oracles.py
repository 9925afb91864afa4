"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written from first principles (explicit
loops, textbook formulas, exhaustive enumeration) and avoids the code paths
under test: the eigenvalue oracle uses Jacobi rotations instead of LAPACK,
the rank-correlation oracle builds midranks by hand instead of calling
scipy, and the constrained least-squares oracle enumerates active sets.
The groupwise-fit oracles build the explicit T×T×d displacement tensors that
the library's moment form avoids.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigenvalues(matrix, max_sweeps=100):
    """All eigenvalues of a symmetric matrix via cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= 1e-15 * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = (a + a.T) / 2.0
    return np.sort(np.diag(a))


def naive_covariance(values):
    """Double-loop averaged outer products of demeaned rows, 1/T normalization."""
    t, j = values.shape
    means = [sum(values[i, a] for i in range(t)) / t for a in range(j)]
    out = np.zeros((j, j))
    for a in range(j):
        for b in range(j):
            acc = 0.0
            for i in range(t):
                acc += (values[i, a] - means[a]) * (values[i, b] - means[b])
            out[a, b] = acc / t
    return out


def midranks(column):
    """Average-tie ranks built by explicit group scanning."""
    col = list(column)
    order = sorted(range(len(col)), key=lambda i: col[i])
    ranks = [0.0] * len(col)
    i = 0
    while i < len(col):
        jdx = i
        while jdx + 1 < len(col) and col[order[jdx + 1]] == col[order[i]]:
            jdx += 1
        avg = (i + jdx) / 2.0 + 1.0
        for k in range(i, jdx + 1):
            ranks[order[k]] = avg
        i = jdx + 1
    return np.array(ranks)


def textbook_pearson(x, y):
    """Two-pass product-moment correlation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((x[i] - mx) * (y[i] - my) for i in range(n))
    dx = math.sqrt(sum((x[i] - mx) ** 2 for i in range(n)))
    dy = math.sqrt(sum((y[i] - my) ** 2 for i in range(n)))
    return num / (dx * dy)


def naive_spearman(values):
    """Rank-then-correlate, one pair at a time."""
    t, j = values.shape
    ranks = [midranks(values[:, a]) for a in range(j)]
    out = np.eye(j)
    for a in range(j):
        for b in range(a + 1, j):
            r = textbook_pearson(ranks[a], ranks[b])
            out[a, b] = r
            out[b, a] = r
    return out


def brute_force_sign_ls(g, c, d, mask):
    """Exact minimizer of ``0.5 b'Gb - c'b`` under ``d_k b_k >= 0`` on masked coords.

    Enumerates every subset of the constrained coordinates as the zero set,
    keeps feasible candidates, and returns the one with the smallest
    objective.  Exponential, fine for small problems.
    """
    k = len(c)
    constrained = [i for i in range(k) if mask[i]]
    best = None
    best_obj = None
    for bits in range(1 << len(constrained)):
        active = {constrained[i] for i in range(len(constrained)) if bits >> i & 1}
        free = [i for i in range(k) if i not in active]
        beta = np.zeros(k)
        if free:
            sub = g[np.ix_(free, free)]
            try:
                beta[free] = np.linalg.solve(sub, c[free])
            except np.linalg.LinAlgError:
                continue
        if any(d[i] * beta[i] < -1e-12 for i in constrained):
            continue
        obj = 0.5 * beta @ g @ beta - c @ beta
        if best_obj is None or obj < best_obj - 1e-15:
            best = beta
            best_obj = obj
    return best


def spreadsheet_transform(columns, codes):
    """Pure-Python transform + trim + standardize, column by column.

    ``columns`` is a list of lists (raw values), ``codes`` the matching
    transform names.  Mirrors a spreadsheet computation: math.log cells,
    manual differences, two-pass mean and (n-1)-divisor standard deviation.
    Returns the standardized columns as lists.
    """
    worked = []
    lags = []
    for col, code in zip(columns, codes):
        vals = list(col)
        if code.startswith("log"):
            vals = [math.log(v) for v in vals]
        if code in ("diff1", "log_diff1"):
            vals = [b - a for a, b in zip(vals, vals[1:])]
            lags.append(1)
        elif code in ("diff2", "log_diff2"):
            d1 = [b - a for a, b in zip(vals, vals[1:])]
            vals = [b - a for a, b in zip(d1, d1[1:])]
            lags.append(2)
        else:
            lags.append(0)
        worked.append(vals)
    max_lag = max(lags)
    t_out = len(columns[0]) - max_lag
    out = []
    for vals in worked:
        vals = vals[len(vals) - t_out :]
        n = len(vals)
        mean = sum(vals) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
        out.append([(v - mean) / sd for v in vals])
    return out


def direct_threshold_loss(e1, e2, s):
    """Squared Frobenius distance between ``e1`` hard-thresholded at ``s`` and ``e2``."""
    kept = np.where(np.abs(e1) >= s, e1, 0.0)
    d = kept - e2
    return float(np.sum(d * d))


def count_nonzero_score(indices, entries):
    """Direct double-loop averaged non-zero score."""
    idx = list(indices)
    hits = 0
    for a in idx:
        for b in idx:
            if entries[a, b] != 0.0:
                hits += 1
    return hits / len(idx) ** 2


def tensor_local_linear_surface(v, y, w):
    """Local-linear level and slopes at every anchor from the T×T×(S+1) design tensor."""
    t, s = v.shape
    d = v[None, :, :] - v[:, None, :]
    z = np.concatenate([np.ones((t, t, 1)), d], axis=2)
    a = np.einsum("ijk,ijl,ij->ikl", z, z, w, optimize=True)
    rhs = np.einsum("ijk,ij->ik", z, w * y[None, :], optimize=True)
    jitter = 1e-12 * np.einsum("ikk->i", a)
    a = a + jitter[:, None, None] * np.eye(s + 1)[None, :, :]
    coef = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    return coef[:, 0], coef[:, 1:]


def _pooled_regressors(x, slices, slope):
    """``r[i, j, k] = slope[i, group of k] * (x[j, k] - x[i, k])`` as a T×T×K tensor."""
    t, k = x.shape
    r = np.empty((t, t, k))
    for s, sl in enumerate(slices):
        r[:, :, sl] = slope[:, s][:, None, None] * (x[None, :, sl] - x[:, None, sl])
    return r


def tensor_pooled_normal_equations(w, x, slices, slope, y, level):
    """Pooled ``G`` and ``c`` from the T×T×K regressor tensor."""
    r = _pooled_regressors(x, slices, slope)
    g = np.einsum("ijk,ijl,ij->kl", r, r, w, optimize=True)
    g = (g + g.T) / 2.0
    c = np.einsum("ijk,ij->k", r, w * (y[None, :] - level[:, None]), optimize=True)
    return g, c


def tensor_pooled_objective(w, x, slices, slope, beta, y, level):
    """Weighted mean squared pooled residual from the T×T×K regressor tensor."""
    r = _pooled_regressors(x, slices, slope)
    fitted = np.einsum("ijk,k->ij", r, beta, optimize=True)
    resid = y[None, :] - level[:, None] - fitted
    return float(np.sum(w * resid**2)) / float(np.sum(w))


def direct_smooth1d(v_train, target, h, v_eval):
    """Local-linear smoother values from the five weighted sums at each point."""
    dcol = v_train[None, :] - v_eval[:, None]
    w = np.exp(-0.5 * (dcol / h) ** 2)
    s0 = w.sum(axis=1)
    s1 = (w * dcol).sum(axis=1)
    s2 = (w * dcol * dcol).sum(axis=1)
    t0 = (w * target[None, :]).sum(axis=1)
    t1 = (w * dcol * target[None, :]).sum(axis=1)
    det = s0 * s2 - s1 * s1
    safe = det > 1e-12 * (s0 * s0 * h * h + 1e-300)
    return np.where(
        safe, (s2 * t0 - s1 * t1) / np.where(safe, det, 1.0), t0 / np.maximum(s0, 1e-300)
    )


def direct_backfit_links(v, y, h, grid_size):
    """Backfitted links, every sweep re-smoothing with ``direct_smooth1d``."""
    t, s = v.shape
    ybar = float(y.mean())
    resid = y - ybar
    m = np.zeros((t, s))
    converged = False
    for _ in range(50):
        delta = 0.0
        for j in range(s):
            partial = resid - m.sum(axis=1) + m[:, j]
            new = direct_smooth1d(v[:, j], partial, float(h[j]), v[:, j])
            new = new - new.mean()
            delta = max(delta, float(np.max(np.abs(new - m[:, j]))))
            m[:, j] = new
        if delta < 1e-9 * (1.0 + float(np.std(y))):
            converged = True
            break
    links = []
    for j in range(s):
        partial = resid - m.sum(axis=1) + m[:, j]
        mu = float(direct_smooth1d(v[:, j], partial, float(h[j]), v[:, j]).mean())
        grid = np.linspace(float(v[:, j].min()), float(v[:, j].max()), grid_size)
        vals = direct_smooth1d(v[:, j], partial, float(h[j]), grid) - mu + ybar / s
        links.append((grid, vals))
    return tuple(links), converged
