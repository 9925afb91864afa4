"""Show that the benchmark's output checks catch corrupted outputs.

From the root of a checkout::

    python3 benchmark/selftest.py

Runs ``covclust run`` once on the bundled fixture, confirms that the
outputs pass every check, then corrupts copies of them one way at a time
and requires each copy to fail: a group member swapped between sets, r^2
off by 1e-6, the threshold moved one grid step, one CV loss off by 1e-8
relative, a constrained coefficient with the wrong sign, a noise series
kept (the support rule for drawn panels), and one changed byte in
``links.csv`` (the identity rule between jobs).  Exits 1 if any corruption
goes unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402


def _edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _swap_member(d: Path) -> None:
    def change(c):
        a, b = c["sets"][0]["labels"], c["sets"][1]["labels"]
        a[-1], b[-1] = b[-1], a[-1]

    _edit_json(d / "clusters.json", change)


def _r2_off(d: Path) -> None:
    def change(obj):
        obj["r_squared"] += 1e-6

    _edit_json(d / "report.json", change)
    _edit_json(d / "fit.json", change)


def _threshold_step(d: Path) -> None:
    screen = json.loads((d / "screen.json").read_text())
    grid = screen["cv"]["grid"]
    moved = grid[grid.index(screen["threshold"]) - 1]

    def change_screen(s):
        s["threshold"] = s["cv"]["selected"] = moved

    def change_report(r):
        r["selected_threshold"] = moved

    _edit_json(d / "screen.json", change_screen)
    _edit_json(d / "report.json", change_report)


def _loss_off(d: Path) -> None:
    def change(s):
        s["cv"]["losses"][3] *= 1.0 + 1e-8

    _edit_json(d / "screen.json", change)


def _wrong_sign(d: Path) -> None:
    def change(f):
        group = next(g for g in f["groups"] if len(g["beta"]) > 1)
        group["beta"][0] = -group["beta"][0]

    _edit_json(d / "fit.json", change)


def _noise_kept(d: Path) -> None:
    def change_screen(s):
        s["kept_labels"].append("n01")
        s["signs"].append(1)

    def change_clusters(c):
        c["sets"].append({"labels": ["n01"], "indices": [0], "score": 1.0})

    _edit_json(d / "screen.json", change_screen)
    _edit_json(d / "clusters.json", change_clusters)


def _support_only(exact):
    """Run only the support rule: exact (fixed demo panel) or the subset rule (drawn panels)."""

    def check(d, info):
        checks.check_support(
            json.loads((d / "screen.json").read_text()),
            json.loads((d / "clusters.json").read_text()),
            info["truth"],
            exact=exact,
        )

    return check


def _full(d, info):
    checks.check_outputs(d, "run", info["panel"], info["config"], info["truth"])


def _identity(reference):
    def check(d, info):
        diff = checks.differing_outputs(d, reference)
        if diff:
            raise checks.CheckFailed(f"{diff} differ from the reference job")

    return check


def _flip_link_byte(d: Path) -> None:
    text = (d / "links.csv").read_text()
    i = text.rindex("1")
    (d / "links.csv").write_text(text[:i] + "2" + text[i + 1 :])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from covclust.cli import main as covclust_main

    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        info = inputs.write_inputs("fixture_run", 0, work / "inputs")
        reference = work / "reference"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = covclust_main(info["argv_head"] + ["--out", str(reference)])
        if rc != 0:
            print(f"fixture run exited {rc}", file=sys.stderr)
            return 1
        _full(reference, info)
        _support_only(False)(reference, info)
        print("uncorrupted outputs pass every check")

        cases = [
            ("group member swapped between sets", _swap_member, _full),
            ("group member swapped (drawn-panel rule)", _swap_member, _support_only(False)),
            ("r_squared off by 1e-6", _r2_off, _full),
            ("threshold moved one grid step", _threshold_step, _full),
            ("one CV loss off by 1e-8 relative", _loss_off, _full),
            ("constrained coefficient with the wrong sign", _wrong_sign, _full),
            ("noise series kept (drawn-panel rule)", _noise_kept, _support_only(False)),
            ("one byte of links.csv changed", _flip_link_byte, _identity(reference)),
        ]
        missed = 0
        for name, corrupt, check in cases:
            copy = work / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(reference, copy)
            corrupt(copy)
            try:
                check(copy, info)
            except checks.CheckFailed as exc:
                print(f"caught   {name}: {exc}")
            else:
                print(f"MISSED   {name}")
                missed += 1
        return 1 if missed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
