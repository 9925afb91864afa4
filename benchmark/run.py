"""covclust benchmark: one workload, one seed, one timed run.

Run from the root of a source checkout::

    python3 benchmark/run.py --workload fixture_run --seed 1 --seconds 20 --trace 0

The run writes the workload's inputs (``inputs.py``), times ``setup_s`` over
several fresh worker interpreters, then sends CLI jobs to one warm worker
(``worker.py``), one job at a time, until ``--seconds`` have passed and at
least ``MIN_JOBS`` jobs have run.  Afterwards it checks the first job's
outputs independently (``checks.py``) and requires every later job's
outputs to be byte-identical to them.  A job fails when it exits nonzero,
fails a check, or differs from the first job.

``--trace 0`` prints the end-to-end metrics: median job wall time, median
set-up time and the worker's peak RSS (``ru_maxrss`` of the ended worker,
read with ``os.wait4``).  ``--trace 1`` traces the worker's first job and
every second job after it, leaves the jobs in between untraced, runs at
least ``MIN_TRACED_JOBS`` jobs, and prints the per-layer metrics together
with ``trace.overhead_s``.  The first job is cold (imports finish, memory
is first touched), so it gives only the ``rss_growth_mb`` values; the
per-layer times are medians over the later traced jobs, and
``trace.overhead_s`` is their median job time minus that of the untraced
jobs.  Units come from ``BENCHMARK.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outside a checkout (no ``src/covclust``) the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 5
MIN_JOBS = 3
#: job 0 plus three warm traced and three untraced jobs
MIN_TRACED_JOBS = 7
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Worker:
    """A ``worker.py`` process; ``ready_s`` is its fresh-start-to-import-ready time."""

    def __init__(self, root: Path, env: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            cwd=root,
        )
        ready = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if not ready.strip():
            self.close()
            raise RuntimeError("worker ended before importing covclust.cli")

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended during request {req}")
        return json.loads(line)

    def finish(self, spans_path: Path | None = None) -> float:
        """End the worker (writing its spans if asked); return its peak RSS in MB."""
        if spans_path is not None:
            self.proc.stdin.write(json.dumps({"finish": str(spans_path)}) + "\n")
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "COVCLUST_SEED")}
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
    return env


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list, job: int) -> dict:
    """Per-layer numbers of one traced job from its spans."""
    mine = [s for s in spans if s[2] == job]
    children: dict = {}
    for s in mine:
        children.setdefault(s[1], []).append(s)

    def named(name):
        return [s for s in mine if s[3] == name]

    def total(name):
        return sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return sum(
            (s[5] - s[4]) - _union_length((c[4], c[5]) for c in children.get(s[0], []))
            for s in named(name)
        )

    def count(name, key):
        return sum(s[6].get(key, 0) for s in named(name))

    fit_s = total("groupfit.fit")
    iterations = count("groupfit.fit", "iterations")
    r2_s = total("groupfit.explained_variation")
    return {
        "ingest.s": total("ingest"),
        "ingest.cells": count("ingest.read_csv", "cells"),
        "panel.estimate.s": total("panel.estimate"),
        "panel.estimate.calls": len(named("panel.estimate")),
        "panel.pairs": count("panel.estimate", "pairs"),
        "panel.standardize.calls": len(named("panel.standardize")),
        "crossval.default_grid.s": total("crossval.default_grid"),
        "crossval.select_threshold.self_s": self_time("crossval.select_threshold"),
        "crossval.loss_evals": count("crossval.select_threshold", "loss_evals"),
        "crossval.rss_growth_mb": count("crossval.select_threshold", "rss_growth_mb"),
        "pipeline.screen.self_s": self_time("pipeline.screen"),
        "pipeline.cluster.s": total("pipeline.cluster"),
        "pipeline.kept": count("pipeline.screen", "kept"),
        "pipeline.sets": count("pipeline.cluster", "sets"),
        "pipeline.admissions": count("pipeline.cluster", "admissions"),
        "groupfit.fit.self_s": self_time("groupfit.fit"),
        "groupfit.iterations": iterations,
        "groupfit.s_per_iter": (fit_s - r2_s) / iterations if iterations else 0.0,
        "groupfit.kernel_weight.s": total("groupfit.kernel_weight"),
        "groupfit.explained_variation.s": r2_s,
        "groupfit.predict.calls": len(named("groupfit.predict")),
        "groupfit.rss_growth_mb": count("groupfit.fit", "rss_growth_mb"),
        "cli.self_s": self_time("cli"),
    }


#: ru_maxrss is a high-water mark, so growth is only visible on the worker's first job
FIRST_JOB_ONLY = ("crossval.rss_growth_mb", "groupfit.rss_growth_mb")


def per_layer(spans: list, traced: list, walls: dict, units: dict) -> dict:
    """Growth from the cold job 0, everything else as a median over the warm traced jobs."""
    first = layer_metrics(spans, 0)
    warm = [layer_metrics(spans, job) for job in traced if job != 0]
    out = {}
    for name in first:
        value = first[name] if name in FIRST_JOB_ONLY else statistics.median(r[name] for r in warm)
        out[name] = {"value": value, "unit": units[name]}
    untraced = [w for job, w in walls.items() if job not in traced]
    overhead = statistics.median(walls[j] for j in traced if j != 0) - statistics.median(untraced)
    out["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    return out


def run(args, root: Path, work: Path) -> dict:
    info = inputs.write_inputs(args.workload, args.seed, work / "inputs")
    command = info["argv_head"][0]
    env = _worker_env(root)

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(root, env)
        setup.append(w.ready_s)
        w.finish()
    worker = Worker(root, env)
    setup.append(worker.ready_s)

    walls, traced, failed = {}, [], set()
    reference = None
    try:
        start = time.perf_counter()
        job = 0
        min_jobs = MIN_TRACED_JOBS if args.trace else MIN_JOBS
        while job < min_jobs or time.perf_counter() - start < args.seconds:
            trace = bool(args.trace) and job % 2 == 0
            out = work / "out" / str(job)
            reply = worker.request(
                {"job": job, "argv": info["argv_head"] + ["--out", str(out)], "trace": trace}
            )
            walls[job] = reply["wall_s"]
            if trace:
                traced.append(job)
            if reply["rc"] != 0:
                print(f"job {job} exited {reply['rc']}: {reply['output'].strip()}", file=sys.stderr)
                failed.add(job)
            elif reference is None:
                reference = out
            else:
                diff = checks.differing_outputs(out, reference)
                if diff:
                    print(f"job {job}: {diff} differ from job {reference.name}", file=sys.stderr)
                    failed.add(job)
                shutil.rmtree(out)
            job += 1
        spans_path = work / "spans.json"
        peak_rss_mb = worker.finish(spans_path if args.trace else None)
    finally:
        worker.close()

    if reference is not None:
        try:
            checks.check_outputs(reference, command, info["panel"], info["config"], info["truth"])
        except checks.CheckFailed as exc:
            print(f"job {reference.name} outputs fail a check: {exc}", file=sys.stderr)
            failed.update(j for j in walls if j not in failed)

    if args.trace:
        bench = json.loads((root / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = per_layer(json.loads(spans_path.read_text()), traced, walls, units)
    else:
        metrics = {
            "job_s": {"value": statistics.median(walls.values()), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        f"{args.workload} seed {args.seed}: {len(walls)} jobs, "
        f"job_s {[round(w, 3) for w in walls.values()]}, setup_s {[round(s, 3) for s in setup]}",
        file=sys.stderr,
    )
    return {
        "correct": not failed,
        "attempted": len(walls),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covclust benchmark run")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "covclust" / "cli.py").is_file():
        print(f"no covclust source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
