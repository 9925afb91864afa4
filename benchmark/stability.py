"""Run two sets of benchmark runs of the same code and compare them.

From the root of a checkout::

    python3 benchmark/stability.py --runs 10 --first-seed 2001

Two sets of ``--runs`` untraced runs are made of every workload in
``BENCHMARK.json``, each run ``run_seconds`` long and with its own seed
(set 1 uses seeds ``first-seed ...``, set 2 the next ``--runs`` seeds).
For each end-to-end metric on each workload the table gives both sets'
medians and quartiles (``statistics.quantiles(n=4)``) and the spread, the
interquartile distance as a share of the median.  A row agrees when both
sets' spreads are within the metric's bound and the two medians differ by
no more than the bound, in either direction.  The share of failed jobs must
also be the same in both sets.  The command exits 0 when every row agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        rows = {"failed_share": shares}
        if len(set(shares)) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
        print(f"{workload}: failed share per set {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            agree = all(st["spread"] <= bound for st in stats) and abs(drift) <= bound
            ok = ok and agree
            rows[name] = {"sets": stats, "bound": bound, "worse_by": drift, "agree": agree}
            cells = "  ".join(
                f"median {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] spread {st['spread']:.3f}"
                for st in stats
            )
            print(f"  {name:12s} {cells}  worse_by {drift:+.3f}  bound {bound}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        report[workload] = rows
    print(json.dumps({"agree": ok, "workloads": report}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
