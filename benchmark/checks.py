"""Output checks made apart from the program.

Nothing here imports ``covclust``.  The panel is re-read with numpy and
standardized, rank correlations come from ``scipy.stats.rankdata`` plus
``np.corrcoef``, the cross-validation splits are re-drawn from the documented
rule (``numpy.random.default_rng([seed, split]).integers``), and the
tabulated links are evaluated with ``np.interp`` plus linear extension past
both ends.  Every check compares the program's outputs with these
recomputations or with the generating truth, never with a stored copy of an
earlier output.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

_SEED_MASK = (1 << 63) - 1
#: outputs that must be byte-identical between jobs (meta.json holds a timestamp)
DETERMINISTIC = ("screen.json", "clusters.json", "clusters.txt", "fit.json", "links.csv", "report.json")

REL_TOL = 1e-9
R2_TOL = 1e-9
MAX_ANGLE_DEG = 10.0


class CheckFailed(AssertionError):
    """An output disagrees with its independent recomputation."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_config(path) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def standardized_panel(csv_path, config) -> tuple[list, np.ndarray]:
    """Labels and the column-standardized (ddof=1) panel, all columns at level."""
    with open(csv_path, newline="") as fh:
        labels = [c.strip() for c in next(csv.reader(fh))]
    codes = {
        part.split("=")[1].strip() for part in config.get("transforms", "").split(",") if part
    }
    _require(codes <= {"level"}, f"checks handle level columns only, config asks {codes}")
    x = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    return labels, (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def spearman(block: np.ndarray) -> np.ndarray:
    c = np.corrcoef(rankdata(block, axis=0), rowvar=False)
    c = np.clip(c, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c


def _close(got, want) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= REL_TOL * np.abs(want)))


def check_screen(screen: dict, labels, z, config) -> np.ndarray:
    """CV grid, loss curve, selection rule, kept set and signs; returns the full Spearman matrix."""
    t = z.shape[0]
    cv = screen["cv"]
    t1 = int(config.get("t1", max(2, 2 * t // 9)))
    t2 = int(config.get("t2", min(2 * t1, t - t1)))
    n_splits = int(config.get("n_splits", 100))
    seed = int(config.get("seed", 0))
    _require(
        (cv["t1"], cv["t2"], cv["n_splits"], cv["seed"]) == (t1, t2, n_splits, seed),
        f"CV settings {cv['t1'], cv['t2'], cv['n_splits'], cv['seed']} != {t1, t2, n_splits, seed}",
    )
    full = spearman(z)
    top = float(np.max(np.abs(full - np.diag(np.diag(full)))))
    grid = np.linspace(0.0, top, int(config.get("grid_size", 50)))
    _require(_close(cv["grid"], grid), "threshold grid differs from linspace(0, max |off-diagonal|)")

    grid = np.asarray(cv["grid"])
    losses = np.zeros(len(grid))
    for i in range(n_splits):
        rng = np.random.default_rng([seed & _SEED_MASK, i])
        o = int(rng.integers(0, t - t1 - t2 + 1))
        e1, e2 = spearman(z[o : o + t1]), spearman(z[o + t1 : o + t1 + t2])
        for g, s in enumerate(grid):
            d = np.where(np.abs(e1) >= s, e1, 0.0) - e2
            losses[g] += np.sum(d * d)
    losses /= n_splits
    _require(_close(cv["losses"], losses), "CV loss curve differs from the recomputation")

    reported = np.asarray(cv["losses"])
    best = float(grid[np.flatnonzero(reported == reported.min())[-1]])
    _require(
        cv["selected"] == best and screen["threshold"] == best,
        f"selected threshold {screen['threshold']!r} is not the largest minimizer {best!r}",
    )

    r = labels.index(screen["response"])
    rho = full[:, r]
    thr = screen["threshold"]
    must = {labels[k] for k in range(len(labels)) if k != r and abs(rho[k]) >= thr + 1e-12}
    may = {labels[k] for k in range(len(labels)) if k != r and abs(rho[k]) >= thr - 1e-12}
    kept = screen["kept_labels"]
    _require(len(set(kept)) == len(kept) and must <= set(kept) <= may,
             f"kept {sorted(kept)} != {{k : |rho(k, y)| >= {thr}}} = {sorted(must)}")
    signs = [1 if rho[labels.index(l)] > 0 else -1 for l in kept]
    _require(signs == screen["signs"], "screening signs differ from the response correlations")
    return full


def check_support(screen: dict, clusters: dict, truth: dict, exact: bool) -> None:
    """Kept set and groups against the generating story.

    ``exact``: kept labels are all group members and the sets are exactly
    the generating groups.  Otherwise (drawn panels, where a weak group
    series may fall under the threshold): no noise series is kept and every
    set lies inside one generating group.
    """
    kept = set(screen["kept_labels"])
    sets = [s["labels"] for s in clusters["sets"]]
    _require(sorted(l for s in sets for l in s) == sorted(kept), "sets do not partition the kept set")
    groups = [set(g) for g in truth["groups"]]
    if exact:
        _require(kept == set().union(*groups), f"kept {sorted(kept)} != generating group members")
        _require(sorted(map(sorted, sets)) == sorted(map(sorted, groups)),
                 f"sets {sets} != generating groups {truth['groups']}")
    else:
        noise = kept & set(truth["noise"])
        _require(not noise, f"noise series kept: {sorted(noise)}")
        for s in sets:
            _require(any(set(s) <= g for g in groups), f"set {s} mixes generating groups")


def _link(grid, vals, v):
    """Tabulated link at ``v``: linear interpolation, boundary slopes outside."""
    out = np.interp(v, grid, vals)
    lo, hi = v < grid[0], v > grid[-1]
    out[lo] = vals[0] + (vals[1] - vals[0]) / (grid[1] - grid[0]) * (v[lo] - grid[0])
    out[hi] = vals[-1] + (vals[-1] - vals[-2]) / (grid[-1] - grid[-2]) * (v[hi] - grid[-1])
    return out


def check_fit(outdir: Path, screen: dict, report: dict, labels, z, truth: dict) -> None:
    """Coefficients (norm, signs, direction) and r^2 recomputed from fit.json and links.csv.

    The direction check applies to groups that are a whole generating group;
    a group missing a member has no generating direction of its own.
    """
    fit = json.loads((outdir / "fit.json").read_text())
    clusters = json.loads((outdir / "clusters.json").read_text())
    _require([g["variables"] for g in fit["groups"]] == [s["labels"] for s in clusters["sets"]],
             "fit groups differ from the cluster sets")
    sign_of = dict(zip(screen["kept_labels"], screen["signs"]))
    weights = {frozenset(g): dict(zip(g, ws)) for g, ws in zip(truth["groups"], truth["weights"])}
    for g in fit["groups"]:
        beta = np.asarray(g["beta"])
        if len(beta) == 1:
            _require(beta[0] == 1.0, f"singleton {g['variables']} has beta {beta[0]!r}, not 1")
            continue
        _require(abs(float(np.linalg.norm(beta)) - 1.0) <= 1e-12, f"group {g['variables']} is not unit norm")
        for label, b in zip(g["variables"], beta):
            _require(b == 0.0 or np.sign(b) == sign_of[label],
                     f"coefficient of {label} is {b!r}, against its screening sign")
        weight_of = weights.get(frozenset(g["variables"]))
        if weight_of is None:
            continue
        w = np.array([weight_of[l] for l in g["variables"]])
        angle = np.degrees(np.arccos(np.clip(beta @ (w / np.linalg.norm(w)), -1.0, 1.0)))
        _require(angle <= MAX_ANGLE_DEG, f"group {g['variables']} is {angle:.1f} deg from its weights")

    links = np.loadtxt(outdir / "links.csv", delimiter=",", skiprows=1, ndmin=2)
    y = z[:, labels.index(screen["response"])]
    pred = np.zeros_like(y)
    for s, g in enumerate(fit["groups"], start=1):
        rows = links[links[:, 0] == s]
        v = z[:, [labels.index(l) for l in g["variables"]]] @ np.asarray(g["beta"])
        pred += _link(rows[:, 1], rows[:, 2], v)
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))
    _require(abs(r2 - report["r_squared"]) <= R2_TOL,
             f"r_squared {report['r_squared']!r} != recomputed {r2!r}")
    _require(fit["r_squared"] == report["r_squared"], "fit.json and report.json r_squared differ")
    _require(
        (report["iterations"], report["converged"]) == (fit["iterations"], fit["converged"]),
        "fit.json and report.json disagree on iterations or convergence",
    )


def check_outputs(outdir, command: str, panel_csv, config_path, truth: dict) -> None:
    """Every check for one job's output directory; raises :class:`CheckFailed`."""
    outdir = Path(outdir)
    config = read_config(config_path)
    labels, z = standardized_panel(panel_csv, config)
    screen = json.loads((outdir / "screen.json").read_text())
    clusters = json.loads((outdir / "clusters.json").read_text())
    _require(screen["response"] == truth["response"], "unexpected response label")
    check_screen(screen, labels, z, config)
    check_support(screen, clusters, truth, exact=truth["exact_support"])
    if command == "run":
        report = json.loads((outdir / "report.json").read_text())
        _require(
            (report["K"], report["S"], report["selected_threshold"])
            == (len(screen["kept_labels"]), len(clusters["sets"]), screen["threshold"]),
            "report.json K, S or threshold disagree with screen.json and clusters.json",
        )
        check_fit(outdir, screen, report, labels, z, truth)


def differing_outputs(outdir, reference) -> list:
    """Names of deterministic outputs whose bytes differ from ``reference``."""
    outdir, reference = Path(outdir), Path(reference)
    return [
        name
        for name in DETERMINISTIC
        if (reference / name).exists()
        and (not (outdir / name).exists() or (outdir / name).read_bytes() != (reference / name).read_bytes())
    ]
