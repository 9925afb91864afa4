"""Seeded input panels for the benchmark workloads.

Every workload runs on a CSV panel plus a ``key = value`` config file, the
same inputs a user hands to ``covclust``.  ``fixture_run`` uses the bundled
demo files unchanged.  ``long_run`` and ``wide_cluster`` panels are drawn
here from the workload seed and written with ``covclust.ingest.write_panel_csv``
(shortest round-trip floats), so one seed always gives byte-identical files.

The generating stories are copied into this file rather than imported from
``fixtures/make_fixture.py``, so a later edit to the fixture script cannot
change the benchmark's inputs.

Rebuild the inputs of one workload from a seed::

    python3 benchmark/inputs.py --workload long_run --seed 3 --out some_dir
    python3 benchmark/inputs.py --workload wide_cluster --seed 3 --out d --check

``--check`` writes the files twice and fails unless both copies are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
FIXTURE_DIR = ROOT / "fixtures"

WORKLOADS = ("fixture_run", "long_run", "wide_cluster")

# The bundled fixture's story (fixtures/make_fixture.py): two latent-factor
# groups, eleven noise series, y = (u1 + 0.3 u1^2) + 1.1 sin(u2) + 0.3 eps.
RHO = 0.65
GROUP1 = ("s1", "s2", "s3")
GROUP2 = ("w1", "w2")
W1 = (2.0, 1.0, 1.0)
W2 = (1.0, 2.0)
NOISE_COLS = 11
SIGMA_EPS = 0.3
LONG_T = 1200

# wide_cluster: four factor groups of six series and 100 noise series; the
# response is the sum of the four group indices plus a small error.  The
# factors are orthonormalised in sample, so each group carries a quarter of
# the response variation on every seed.  Over 30 seeds every group series
# had a response rank correlation of at least 0.41, the cross-validated
# threshold (set by the noise level of the 133-row first segments) lay in
# 0.31-0.37, and no noise series came above 0.17, so none passes the screen.
WIDE_T = 600
WIDE_RHO = 0.9
WIDE_GROUPS = 4
WIDE_GROUP_SIZE = 6
WIDE_WEIGHTS = (1.0,) * 6
WIDE_NOISE_COLS = 100


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed) & ((1 << 63) - 1), 0xBE7C, tag])


def _group_block(rng, t, n, rho):
    """``n`` unit-variance series driven by one shared factor."""
    factor = rng.standard_normal(t)
    idio = rng.standard_normal((t, n))
    return np.sqrt(rho) * factor[:, None] + np.sqrt(1.0 - rho) * idio


def _unit_variance_index(block, weights, rho):
    """Population-unit-variance linear index of one group block."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    cov = np.full((n, n), rho) + (1.0 - rho) * np.eye(n)
    return block @ (w / float(np.sqrt(w @ cov @ w)))


def _shuffled(rng, labels, values):
    order = rng.permutation(len(labels))
    return [labels[i] for i in order], values[:, order]


def _long_run(rng) -> tuple[list, np.ndarray, dict]:
    block1 = _group_block(rng, LONG_T, len(GROUP1), RHO)
    block2 = _group_block(rng, LONG_T, len(GROUP2), RHO)
    noise = rng.standard_normal((LONG_T, NOISE_COLS))
    u1 = _unit_variance_index(block1, W1, RHO)
    u2 = _unit_variance_index(block2, W2, RHO)
    y = (u1 + 0.3 * u1**2) + 1.1 * np.sin(u2) + SIGMA_EPS * rng.standard_normal(LONG_T)
    noise_labels = [f"n{k:02d}" for k in range(1, NOISE_COLS + 1)]
    labels, values = _shuffled(
        rng, list(GROUP1) + list(GROUP2) + noise_labels, np.column_stack([block1, block2, noise])
    )
    truth = {
        "groups": [list(GROUP1), list(GROUP2)],
        "weights": [list(W1), list(W2)],
        "noise": noise_labels,
    }
    return ["y"] + labels, np.column_stack([y, values]), truth


def _orthonormal_factors(rng, t, n):
    """``n`` factors with zero sample mean, unit sample variance and no sample
    cross-covariance (Gram-Schmidt with plain numpy sums, no BLAS)."""
    out = []
    for _ in range(n):
        f = rng.standard_normal(t)
        f = f - f.mean()
        for q in out:
            f = f - np.sum(f * q) / np.sum(q * q) * q
        out.append(f / np.sqrt(np.sum(f * f) / (t - 1)))
    return out


def _wide_cluster(rng) -> tuple[list, np.ndarray, dict]:
    groups, blocks = [], []
    y = SIGMA_EPS * rng.standard_normal(WIDE_T)
    for g, factor in enumerate(_orthonormal_factors(rng, WIDE_T, WIDE_GROUPS)):
        idio = rng.standard_normal((WIDE_T, WIDE_GROUP_SIZE))
        block = np.sqrt(WIDE_RHO) * factor[:, None] + np.sqrt(1.0 - WIDE_RHO) * idio
        y = y + _unit_variance_index(block, WIDE_WEIGHTS, WIDE_RHO)
        groups.append([f"g{g + 1}_{m + 1}" for m in range(WIDE_GROUP_SIZE)])
        blocks.append(block)
    noise = rng.standard_normal((WIDE_T, WIDE_NOISE_COLS))
    noise_labels = [f"n{k:03d}" for k in range(1, WIDE_NOISE_COLS + 1)]
    labels, values = _shuffled(
        rng, [l for g in groups for l in g] + noise_labels, np.column_stack(blocks + [noise])
    )
    truth = {
        "groups": groups,
        "weights": [list(WIDE_WEIGHTS)] * len(groups),
        "noise": noise_labels,
    }
    return ["y"] + labels, np.column_stack([y, values]), truth


def _config_text(command: str, cv_seed: int) -> str:
    return (
        f"# options for `covclust {command}` on a generated benchmark panel\n"
        "response = y\n"
        "transforms = y=level\n"
        f"seed = {cv_seed}\n"
    )


def write_inputs(workload: str, seed: int, outdir) -> dict:
    """Write the workload's inputs into ``outdir``; return paths and ground truth.

    The result holds ``argv_head`` (the CLI subcommand and its ``--config``
    and ``--input`` flags), ``panel`` and ``config`` paths, and ``truth``:
    the generating groups in label form, their index weights, the noise
    labels and ``exact_support``.  Only the fixed demo panel promises that
    the screen keeps exactly the group members: on a drawn panel a weak
    group series can fall under the selected threshold (``long_run`` drops
    ``w1`` on 2 of 120 seeds), so those checks allow a subset.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "fixture_run":
        truth = json.loads((FIXTURE_DIR / "truth.json").read_text())
        groups = [list(GROUP1), list(GROUP2)]
        if sorted(map(sorted, groups)) != sorted(map(sorted, truth["groups"])):
            raise SystemExit("fixtures/truth.json no longer matches the fixture story")
        panel, config, command = FIXTURE_DIR / "fixture_panel.csv", FIXTURE_DIR / "run_config.txt", "run"
        truth = {
            "groups": groups,
            "weights": [list(W1), list(W2)],
            "noise": [f"n{k:02d}" for k in range(1, NOISE_COLS + 1)],
            "exact_support": True,
        }
    else:
        from covclust.ingest import write_panel_csv
        from covclust.panel import TimeSeriesPanel

        build = _long_run if workload == "long_run" else _wide_cluster
        labels, values, truth = build(_rng(workload, seed))
        panel, config = outdir / "panel.csv", outdir / "config.txt"
        write_panel_csv(TimeSeriesPanel(values, tuple(labels)), panel)
        command = "run" if workload == "long_run" else "cluster"
        config.write_text(_config_text(command, int(seed) % 10007))
        truth["exact_support"] = False
        (outdir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    truth["response"] = "y"
    return {
        "argv_head": [command, "--config", str(config), "--input", str(panel)],
        "panel": panel,
        "config": config,
        "truth": truth,
    }


def _digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS[1:])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--check", action="store_true", help="write twice and compare bytes")
    args = parser.parse_args(argv)
    out = Path(args.out)
    write_inputs(args.workload, args.seed, out)
    if args.check:
        again = out.with_name(out.name + ".again")
        try:
            write_inputs(args.workload, args.seed, again)
            first, second = _digest(out), _digest(again)
        finally:
            shutil.rmtree(again, ignore_errors=True)
        if first != second:
            print(f"inputs differ between two writes: {first} vs {second}", file=sys.stderr)
            return 1
        print(f"byte-identical: {', '.join(f'{k} {v[:12]}' for k, v in first.items())}")
    print(f"{args.workload} inputs for seed {args.seed} -> {out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
