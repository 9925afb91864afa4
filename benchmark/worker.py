"""Benchmark worker: one warm interpreter that runs ``covclust`` CLI jobs.

Started by ``run.py`` as a fresh ``python3`` process.  It imports
``covclust.cli`` from the checkout's ``src`` directory, writes one ``ready``
line, then reads job requests from stdin, one JSON object per line::

    {"job": 3, "argv": ["run", "--config", ...], "trace": true}

and answers each with ``{"job": 3, "rc": 0, "wall_s": 2.41, "output": "..."}``,
``output`` being what the CLI printed.  An exception that escapes the CLI
is answered with ``rc`` 1 and its traceback as ``output``, so the job
counts as failed and the worker goes on.  A traced job
wraps the public functions of each ``covclust`` module from outside, for
that job only, and records one span per call.  Spans stay in memory until
the request ``{"finish": "<path>"}``, which writes them all as JSON to that
path and ends the worker.

A span is ``[id, parent, job, name, start, end, counts]``; times are
``time.perf_counter`` seconds and ``counts`` holds work counts read from the
call's arguments and result (cells parsed, matrix pairs, ...).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _estimate_counts(args, kwargs, out, rss0):
    j = args[0].n_series
    return {"pairs": j * (j + 1) // 2}


def _csv_counts(args, kwargs, out, rss0):
    return {"cells": int(out[1].size)}


def _cv_counts(args, kwargs, out, rss0):
    return {
        "loss_evals": out.n_splits * len(out.grid),
        "rss_growth_mb": _maxrss_mb() - rss0,
    }


def _screen_counts(args, kwargs, out, rss0):
    return {"kept": len(out.kept)}


def _cluster_counts(args, kwargs, out, rss0):
    return {
        "sets": len(out.sets),
        "admissions": sum(len(log) - 1 for log in out.admissions),
    }


def _fit_counts(args, kwargs, out, rss0):
    return {"iterations": int(out.iterations), "rss_growth_mb": _maxrss_mb() - rss0}


# (module, function, span name, counts read from the call)
WRAPPED = (
    ("ingest", "ingest", "ingest", None),
    ("ingest", "read_csv_matrix", "ingest.read_csv", _csv_counts),
    ("panel", "standardize", "panel.standardize", None),
    ("panel", "sample_covariance", "panel.estimate", _estimate_counts),
    ("panel", "spearman_matrix", "panel.estimate", _estimate_counts),
    ("crossval", "default_grid", "crossval.default_grid", None),
    ("crossval", "select_threshold", "crossval.select_threshold", _cv_counts),
    ("pipeline", "screen", "pipeline.screen", _screen_counts),
    ("pipeline", "cluster_forward", "pipeline.cluster", _cluster_counts),
    ("pipeline", "cluster_backward", "pipeline.cluster", _cluster_counts),
    ("groupfit", "fit", "groupfit.fit", _fit_counts),
    ("groupfit", "kernel_weight", "groupfit.kernel_weight", None),
    ("groupfit", "explained_variation", "groupfit.explained_variation", None),
    ("groupfit", "predict", "groupfit.predict", None),
)


class Tracer:
    """In-memory span recorder plus the from-outside function wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def span(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [sid, parent, self.job, name, time.perf_counter(), None, {}]
            self.spans.append(rec)
            self._stack.append(sid)
            rss0 = _maxrss_mb() if counts else 0.0
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec[6] = counts(args, kwargs, out, rss0)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Replace every module-level reference to a wrapped function, then restore."""
        patches = []
        for mod_name, attr, name, counts in WRAPPED:
            orig = getattr(modules[mod_name], attr)
            traced = self.span(name, orig, counts)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, traced)
        try:
            yield
        finally:
            for mod, key, orig in reversed(patches):
                setattr(mod, key, orig)


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import covclust
    import covclust.cli

    if Path(covclust.__file__).resolve().parent != root / "src" / "covclust":
        print(f"covclust imported from {covclust.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    modules = {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if name.startswith("covclust.") and mod is not None
    }
    modules["covclust"] = covclust
    tracer = Tracer()
    proto = sys.stdout
    proto.write('{"ready": true}\n')
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if "finish" in req:
            Path(req["finish"]).write_text(json.dumps(tracer.spans))
            return 0
        tracer.job = req["job"]
        job_main = tracer.span("cli", covclust.cli.main) if req["trace"] else covclust.cli.main
        patched = tracer.installed(modules) if req["trace"] else contextlib.nullcontext()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), patched:
            t0 = time.perf_counter()
            try:
                rc = job_main(req["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = 1
                captured.write(traceback.format_exc())
            wall = time.perf_counter() - t0
        reply = {"job": req["job"], "rc": rc, "wall_s": wall, "output": captured.getvalue()}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
