"""Check that this tree writes the same reports as a git revision.

    python3 tools/same_reports.py REV

Runs a fixed list of ``randers-foliate`` argv on the sources of REV and on
those of this working tree, and compares each run's report bytes, stdout,
stderr and exit code.  REV's ``src/`` is taken with ``git archive`` into a
temporary directory, which is removed on every exit, so nothing in the
repository changes and only local git is needed.  Each side runs from its own
empty directory with the same relative ``--out``, so the ``report written to``
lines compare too.

The list: ``--list``; the five catalog defaults at ``--formulas full``; the
argv of each perfbench workload at slots 0 and 5 (``perfbench/workloads.py``);
and CI's config-file run with its flag twin.

Exit status: 0 when every run matches; 1 at the first argv that differs,
after printing it and the stream (exit code, stdout, stderr or a report
file) that differs; 2 when REV names no commit.
"""

from __future__ import annotations

import argparse
import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no cache beside the workloads
import workloads as wl  # noqa: E402

EXAMPLES = ("conformal-torus", "flat-graph", "flat-graph-tangent", "flat-parallel", "sphere-latitudes")
CONFIG = "example = flat-parallel\nres = 12\nout = file.json\n"  # CI's config file, relative out
SLOTS = (0, 5)


def argv_list() -> list[list[str]]:
    runs = [["--list"]]
    runs += [["--example", name, "--formulas", "full", "--out", f"{name}.json"] for name in EXAMPLES]
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
        for argv in runs:
            old, new = (run(src, os.path.join(tmp, f"run-{side}"), argv) for side, src in sides.items())
            difference = first_difference(old, new)
            if difference:
                print(f"differ: {shlex.join(argv)}\n  {difference}")
                return 1
            print(f"same: {shlex.join(argv)}", flush=True)
        print(f"{len(runs)} runs: the same report bytes, stdout, stderr and exit codes as {rev}")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
