"""Command-line interface: end-to-end runs, simulation, threshold CV, clustering.

Subcommands
-----------
``run``
    Ingest a CSV panel, screen against the response, group the survivors,
    fit the groupwise index model, and write all reports.
``simulate``
    Generate a synthetic panel (with its true covariance) to CSV.
``threshold``
    Cross-validate a threshold for a panel's covariance or rank-correlation
    matrix and write the loss curve.
``cluster``
    Screen and group only (no model fitting).

Every option is declared once, in the ``_OPTIONS`` table, which builds the
subcommand flags, reads config files and fills ``meta.json``.  Options may
come from a ``key = value`` config file (``--config``); explicit flags
override file values, and the ``COVCLUST_SEED`` environment variable
supplies the seed when neither gives one.  Every numeric report is written
with shortest round-trip floats (at most 17 significant digits), and
timestamps live only in ``meta.json`` so repeated runs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, get_args

import numpy as np

from . import __version__, _pool
from .crossval import CvConfig, MatrixKind, cv_result_to_json_obj, select_threshold
from .errors import CovclustError, ParseError
from .groupfit import FitConfig, fit, fit_to_json_obj, links_to_csv
from .ingest import _read_lines, ingest, write_panel_csv
from .matrices import sym_to_csv
from .pipeline import (
    build_model_spec,
    cluster_backward,
    cluster_forward,
    clusters_to_json_obj,
    clusters_to_text,
    screen,
    screen_to_json_obj,
)
from .simulate import (
    DependenceKind,
    DependenceSpec,
    Structure,
    StructureKind,
    gen_panel,
    make_sparse_cov,
    model_to_json_obj,
    random_var1,
)

__all__ = ["parse_config_file", "main"]

_SEED_ENV = "COVCLUST_SEED"


@dataclass(frozen=True)
class _Option:
    """One row of the option table.

    ``name`` is the config-file key; with ``-`` for ``_`` it is the flag.
    ``cast`` converts flag and config-file text alike.  A dict ``default``
    gives each subcommand its own value.  A ``required`` option must come
    from a flag or the config file; ``env`` names the environment variable
    read when neither gives a value.
    """

    name: str
    commands: tuple[str, ...]
    help: str
    cast: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    env: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_ON_PANEL = ("run", "threshold", "cluster")
_SCREENING = ("run", "cluster")
_SIM = ("simulate",)
_ALL = _ON_PANEL + _SIM
_OUT_DIRS = {
    "run": "covclust_out",
    "simulate": "covclust_sim",
    "threshold": "covclust_cv",
    "cluster": "covclust_clusters",
}

_OPTIONS = (
    _Option("input", _ON_PANEL, "CSV panel path", required=True),
    _Option("response", _SCREENING, "response column label", required=True),
    _Option("transforms", _ON_PANEL, "LABEL=CODE[,LABEL=CODE...]", default=""),
    _Option("mode", _SCREENING, "grouping scan", default="forward",
            choices=("forward", "backward")),
    _Option("matrix_kind", ("threshold",), "matrix to threshold", default="covariance",
            choices=get_args(MatrixKind)),
    _Option("tolerance", ("run",), "fit convergence tolerance", float, FitConfig.tolerance),
    _Option("max_iter", ("run",), "fit iteration cap", int, FitConfig.max_iter),
    _Option("t1", _ON_PANEL, "first-segment length (default max(2, 2T//9))", int),
    _Option("t2", _ON_PANEL, "second-segment length (default min(2*t1, T - t1))", int),
    _Option("n_splits", _ON_PANEL, "number of CV splits", int, CvConfig.n_splits),
    _Option("grid_size", _ON_PANEL, "threshold grid size", int, CvConfig.grid_size),
    _Option("j", _SIM, "number of series", int, 20),
    _Option("t", _SIM, "number of periods", int, 200),
    _Option("structure", _SIM, "covariance structure", default="random_sparse",
            choices=get_args(StructureKind)),
    _Option("block_sizes", _SIM, "e.g. 3,3,4"),
    _Option("bandwidth", _SIM, "band width of the banded structure", int, 2),
    _Option("decay", _SIM, "decay of the banded structure", float, 0.5),
    _Option("density", _SIM, "density of the random_sparse structure", float, 0.1),
    _Option("dependence", _SIM, "temporal dependence", default="iid",
            choices=get_args(DependenceKind)),
    _Option("m", _SIM, "dependence order", int, 1),
    _Option("var_radius", _SIM, "spectral radius of the var1 coefficient", float, 0.5),
    _Option("seed", _ALL, f"RNG seed (or ${_SEED_ENV})", int, 0, env=_SEED_ENV),
    _Option("out", _ALL, "output directory", default=_OUT_DIRS),
)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment, blank lines skipped.

    A key must name an option of some subcommand, so one file can serve
    several subcommands while a misspelled key is an error, not ignored.  A
    key set twice, a value its option's cast or choices refuse, or a byte
    that is not UTF-8 is an error too, reported at that line.
    """
    options = {opt.name: opt for opt in _OPTIONS}
    out = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno} is not 'key = value'", row=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        where = f"{path}: line {lineno} sets"
        if key not in options:
            raise ParseError(f"{where} unknown option {key!r}", row=lineno)
        if key in out:
            raise ParseError(f"{where} {key!r} again", row=lineno)
        opt = options[key]
        try:
            opt.cast(value)
            if opt.choices is not None and value not in opt.choices:
                raise ValueError(f"not one of {opt.choices}")
        except ValueError as exc:
            raise ParseError(f"{where} {key!r} to {value!r}: {exc}", row=lineno) from None
        out[key] = value
    return out


def _resolve(command: str, args, file_cfg: dict) -> dict:
    """Value of every option ``command`` takes: flag, config file, ``env``, then default."""
    opts = {}
    for opt in _OPTIONS:
        if command not in opt.commands:
            continue
        value = getattr(args, opt.name)
        if value is None and opt.name in file_cfg:
            value = opt.cast(file_cfg[opt.name])
        if value is None and opt.env is not None and os.environ.get(opt.env) is not None:
            raw = os.environ[opt.env]
            try:
                value = opt.cast(raw)
            except ValueError as exc:
                raise ValueError(f"{opt.env}={raw!r} is not a valid {opt.flag}: {exc}") from None
        if value is None and opt.required:
            raise ValueError(f"{command} requires {opt.flag}")
        if value is None:
            value = opt.default[command] if isinstance(opt.default, dict) else opt.default
        opts[opt.name] = value
    return opts


def _parse_transforms(text: str) -> dict:
    """``"A=log_diff1,B=level"`` to a label-to-code dict; ``ingest`` checks the codes.

    A label given twice is refused rather than letting the last code win.
    """
    out = {}
    if not text:
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"transform entry {part!r} is not LABEL=CODE")
        label, code = (p.strip() for p in part.split("=", 1))
        if label in out:
            raise ValueError(f"transform label {label!r} is given more than once")
        out[label] = code
    return out


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(text: str, path: Path) -> None:
    path.write_text(text)


def _write_reports(outdir: Path, reports: dict, args_echo: dict) -> None:
    """Create ``outdir`` and write each ``name: (writer, obj)`` report, then ``meta.json``.

    Called only once a command has computed everything, so a failed command
    leaves no directory or file behind.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (write, obj) in reports.items():
        write(obj, outdir / name)
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "arguments": args_echo,
    }
    _write_json(meta, outdir / "meta.json")


def _config(cls, opts: dict):
    """A ``cls`` config dataclass with each field set from the option of its name."""
    return cls(**{field.name: opts[field.name] for field in fields(cls)})


def _screen_and_group(opts: dict, transforms: dict):
    """Ingest, screen and group as ``run`` and ``cluster`` share; return their reports."""
    cv_cfg = _config(CvConfig, opts)
    panel = ingest(opts["input"], transforms)
    scr = screen(panel, opts["response"], cv_cfg)
    clu = cluster_backward(scr) if opts["mode"] == "backward" else cluster_forward(scr)
    reports = {
        "screen.json": (_write_json, screen_to_json_obj(scr, panel.labels)),
        "clusters.json": (_write_json, clusters_to_json_obj(clu, panel.labels)),
        "clusters.txt": (_write_text, clusters_to_text(clu, panel.labels)),
    }
    return panel, scr, clu, reports


def _cmd_run(opts: dict, outdir: Path) -> tuple[str, dict]:
    transforms = _parse_transforms(opts["transforms"])
    if opts["response"] not in transforms:
        raise ValueError(f"the response {opts['response']!r} must appear in the transform map")
    fit_cfg = _config(FitConfig, opts)
    panel, scr, clu, reports = _screen_and_group(opts, transforms)
    spec = build_model_spec(scr, clu)
    result = fit(panel, spec, fit_cfg)
    reports["fit.json"] = (_write_json, fit_to_json_obj(result, spec, panel.labels))
    reports["links.csv"] = (links_to_csv, result)
    reports["report.json"] = (_write_json, {
        "selected_threshold": float(scr.threshold),
        "K": len(scr.kept),
        "S": len(spec.groups),
        "r_squared": float(result.r_squared),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    })
    return f"run complete: {outdir}/report.json", reports


def _structure(opts: dict) -> Structure:
    kind = opts["structure"]
    if kind == "diagonal":
        return Structure.diagonal()
    if kind == "block":
        if not opts["block_sizes"]:
            raise ValueError("block structure requires --block-sizes, e.g. 3,3,4")
        sizes = []
        for part in filter(None, map(str.strip, opts["block_sizes"].split(","))):
            try:
                sizes.append(int(part))
            except ValueError:
                raise ValueError(f"--block-sizes entry {part!r} is not an integer") from None
        return Structure.block(sizes)
    if kind == "banded":
        return Structure.banded(opts["bandwidth"], opts["decay"])
    return Structure.random_sparse(opts["density"])


def _dependence(opts: dict, model) -> DependenceSpec:
    if opts["dependence"] == "iid":
        return DependenceSpec.iid()
    if opts["dependence"] == "m_dependent":
        return DependenceSpec.m_dependent(opts["m"])
    return random_var1(model, opts["var_radius"], opts["seed"])


def _cmd_simulate(opts: dict, outdir: Path) -> tuple[str, dict]:
    t, seed = opts["t"], opts["seed"]
    # the draws' eigensolves, factorizations and products on one BLAS thread
    with _pool.one_blas_thread():
        model = make_sparse_cov(opts["j"], _structure(opts), seed=seed)
        dep = _dependence(opts, model)
        reports = {
            "panel.csv": (write_panel_csv, gen_panel(model, dep, t, seed=seed)),
            "truth_sigma.csv": (sym_to_csv, model.sigma),
            "model.json": (_write_json, model_to_json_obj(model, dep, t, seed)),
        }
    return f"simulation written to {outdir}", reports


def _cmd_threshold(opts: dict, outdir: Path) -> tuple[str, dict]:
    cv_cfg = _config(CvConfig, opts)
    panel = ingest(opts["input"], _parse_transforms(opts["transforms"]))
    res = select_threshold(panel, cv_cfg, opts["matrix_kind"])
    reports = {"cv.json": (_write_json, cv_result_to_json_obj(res))}
    return f"selected threshold {res.selected!r} -> {outdir}/cv.json", reports


def _cmd_cluster(opts: dict, outdir: Path) -> tuple[str, dict]:
    _, _, clu, reports = _screen_and_group(opts, _parse_transforms(opts["transforms"]))
    return f"{len(clu.sets)} sets -> {outdir}/clusters.txt", reports


# subcommand -> (help line, handler returning the message and the reports)
_COMMANDS = {
    "run": ("full screen/group/fit pipeline", _cmd_run),
    "simulate": ("generate a synthetic panel", _cmd_simulate),
    "threshold": ("cross-validate a threshold only", _cmd_threshold),
    "cluster": ("screen and group only", _cmd_cluster),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covclust",
        description="Thresholded covariance estimation, variable grouping, and groupwise index models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="key = value options file")
        for opt in _OPTIONS:
            if command in opt.commands:
                p.add_argument(opt.flag, type=opt.cast, choices=opt.choices, help=opt.help)
    return parser


def _error_payload(exc: Exception, stage: str) -> dict:
    # LinAlgError subclasses ValueError, so it is tested first
    if isinstance(exc, (np.linalg.LinAlgError, MemoryError)):
        slug = "numeric-failure"
    elif isinstance(exc, CovclustError):
        slug = exc.slug
    elif isinstance(exc, OSError):
        slug = "io-error"
    else:  # the KeyError or ValueError of a malformed argument
        slug = "invalid-argument"
    # str() of a KeyError is the repr of its message, quotes and all
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    payload = {"error": slug, "stage": stage, "message": message}
    for attr in ("row", "column", "labels", "threshold", "max_abs_corr"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    if isinstance(exc, OSError) and exc.filename is not None:
        payload["path"] = str(exc.filename)
    return payload


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        opts = _resolve(args.command, args, file_cfg)
        outdir = Path(opts["out"])
        message, reports = _COMMANDS[args.command][1](opts, outdir)
        _write_reports(outdir, reports, {"command": args.command, **opts})
    except (CovclustError, ValueError, KeyError, OSError, MemoryError) as exc:
        print(json.dumps(_error_payload(exc, args.command), sort_keys=True))
        return 1
    print(message)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
