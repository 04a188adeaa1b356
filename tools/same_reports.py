"""Check that this tree writes the same reports as a git revision.

    python3 tools/same_reports.py REV

Runs a fixed list of ``randers-foliate`` argv on the sources of REV and on
those of this working tree, and compares each run's report bytes, stdout,
stderr and exit code.  REV's ``src/`` is taken with ``git archive`` into a
temporary directory, which is removed on every exit, so nothing in the
repository changes and only local git is needed.  Each side runs from its own
empty directory with the same relative ``--out``, so the ``report written to``
lines compare too.

The list: ``--list``; each example of this tree's ``catalog.EXAMPLES``, by
name, at its defaults and ``--formulas full``; the same for each non-default
``beta_mode`` (``BETA_MODES``); the argv of each perfbench workload at slots 0
and 5 (``perfbench/workloads.py``); and CI's config-file run with its flag
twin.

Every argv runs, whatever the earlier ones gave.  For each argv that differs
the tool prints one ``differ:`` line and the first difference (the stream:
exit code, stdout, stderr or a report file, and its first differing line).
For each JSON report that differs it adds one line: whether every verdict
and the exit code match, the largest change of a ``residual`` with its
formula id, the largest change of a numeric ``detail`` value, if one
moved, with its formula id and key, and each other entry field that differs
(``gates``, ``convergence``, ``tolerance`` and so on) with the number of
entries on which it does.

Exit status: 0 when every run matches; 1 when any argv differs; 2 when REV
names no commit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import zipfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True  # leave no cache beside the workloads or the sources
import workloads as wl  # noqa: E402
from randers_foliations.catalog import EXAMPLES  # noqa: E402

CONFIG = "example = flat-parallel\nres = 12\nout = file.json\n"  # CI's config file, relative out
SLOTS = (0, 5)
# the entry fields whose change report_changes sums up in a clause of its own
SUMMED_UP = ("formula_id", "verdict", "residual", "detail")
# each example's non-default beta_mode, run at its other defaults
BETA_MODES = (("sphere-latitudes", "eigen"), ("conformal-torus", "constant-angle"),
              ("conformal-torus", "riemannian"))


def argv_list() -> list[list[str]]:
    runs = [["--list"]]
    runs += [["--example", name, "--formulas", "full", "--out", f"{name}.json"] for name in sorted(EXAMPLES)]
    runs += [["--example", name, "--param", f"beta_mode={mode}", "--formulas", "full",
              "--out", f"{name}-{mode}.json"] for name, mode in BETA_MODES]
    runs += [wl.cli_argv(w, slot, f"{w.name}-{slot}.json") for w in wl.WORKLOADS.values() for slot in SLOTS]
    runs += [["--config", "run.cfg"], ["--example", "flat-parallel", "--res", "12", "--out", "flag.json"]]
    return runs


def checkout(rev: str, dest: str) -> bool:
    """Extract REV's ``src/`` under ``dest``; False if REV names no commit."""
    found = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                           capture_output=True, text=True)
    if found.returncode != 0:
        return False
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=zip", found.stdout.strip(), "src"],
                             capture_output=True, check=True).stdout
    zipfile.ZipFile(io.BytesIO(archive)).extractall(dest)
    return True


def run(src: str, cwd: str, argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the bytes of each file the run wrote in ``cwd``."""
    before = set(os.listdir(cwd))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "randers_foliations.cli", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    streams = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for name in sorted(set(os.listdir(cwd)) - before):
        with open(os.path.join(cwd, name), "rb") as fh:
            streams[f"report {name}"] = fh.read()
    return streams


def _lines(data: bytes | None) -> list[str]:
    if data is None:
        return ["<not written>"]
    return data.decode(errors="backslashreplace").split("\n") + ["<end>"]


def first_difference(old: dict, new: dict) -> str | None:
    """The first stream that differs and its first differing line; None if none does."""
    for stream in dict.fromkeys([*old, *new]):
        a, b = old.get(stream), new.get(stream)
        if a == b:
            continue
        if stream == "exit code":
            return f"exit code: {a} at REV, {b} here"
        pairs = enumerate(zip(_lines(a), _lines(b)), 1)
        line, x, y = next(((i, x, y) for i, (x, y) in pairs if x != y), (0, a, b))
        return f"{stream}, line {line}: {x!r} at REV, {y!r} here"
    return None


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def report_changes(old: dict, new: dict) -> list[str]:
    """One line per JSON report written on both sides that differs: verdicts, exit code,
    largest residual change, largest change of a numeric ``detail`` value, and each
    other entry field that differs with its count of entries."""
    lines = []
    for stream in old:
        if not stream.startswith("report ") or stream not in new or old[stream] == new[stream]:
            continue
        try:
            a, b = ({r["formula_id"]: r for r in json.loads(side[stream])["reports"]} for side in (old, new))
        except (ValueError, KeyError):
            continue  # not a JSON report on both sides
        same = (old["exit code"] == new["exit code"] and a.keys() == b.keys()
                and all(a[f]["verdict"] == b[f]["verdict"] for f in a))
        changes = {f: abs(b[f]["residual"] - a[f]["residual"]) for f in a if f in b}
        fid = max(changes, key=changes.get, default=None)
        moved = f"largest |residual| change {changes[fid]:.3e} ({fid})" if changes.get(fid) else "no residual moved"
        details = {(f, key): abs(b[f]["detail"][key] - x) for f in a if f in b
                   for key, x in a[f].get("detail", {}).items()
                   if _number(x) and _number(b[f].get("detail", {}).get(key))}
        where = max(details, key=details.get, default=None)
        if details.get(where):
            moved += f"; largest |detail| change {details[where]:.3e} ({where[0]}: {where[1]})"
        fields = Counter(key for f in a if f in b for key in dict.fromkeys([*a[f], *b[f]])
                         if key not in SUMMED_UP and a[f].get(key) != b[f].get(key))
        moved += "".join(f"; {key} on {n} entr{'y' if n == 1 else 'ies'}" for key, n in fields.items())
        lines.append(f"{stream}: verdicts and exit code {'the same' if same else 'DIFFER'}; {moved}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare the reports of REV and this tree")
    parser.add_argument("rev", help="the git revision to compare against, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    tmp = tempfile.mkdtemp(prefix="same-reports-")
    try:
        if not checkout(rev, os.path.join(tmp, "rev")):
            print(f"error: {rev!r} names no commit", file=sys.stderr)
            return 2
        sides = {"rev": os.path.join(tmp, "rev", "src"), "tree": os.path.join(ROOT, "src")}
        for side in sides:
            os.mkdir(os.path.join(tmp, f"run-{side}"))
            with open(os.path.join(tmp, f"run-{side}", "run.cfg"), "w") as fh:
                fh.write(CONFIG)
        runs = argv_list()
        differing = 0
        for argv in runs:
            old, new = (run(src, os.path.join(tmp, f"run-{side}"), argv) for side, src in sides.items())
            difference = first_difference(old, new)
            if difference:
                differing += 1
                print("\n  ".join([f"differ: {shlex.join(argv)}", difference, *report_changes(old, new)]), flush=True)
            else:
                print(f"same: {shlex.join(argv)}", flush=True)
        if differing:
            print(f"{differing} of {len(runs)} runs differ from {rev}")
            return 1
        print(f"{len(runs)} runs: the same report bytes, stdout, stderr and exit codes as {rev}")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
