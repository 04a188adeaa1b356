"""Workload definitions, seeded inputs and the reference comparison.

Each workload is one full ``randers-foliate`` sweep with ``--formulas all
--jobs 1``.  The workload seed selects a parameter slot, ``seed % SLOTS``:
slot 0 is the catalog defaults, slots 1..SLOTS-1 draw the perturbed catalog
parameters uniformly from each workload's ranges.  A reference of every
check's verdict and residual is recorded per slot (``record.py``), so every
seed has an exact reference.  The slot is also forwarded to the CLI as
``--seed`` (it seeds the randomized matrix-identity suite), which keeps the
reference exact there too.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
RUN_DIR = ".perfbench_runs"  # scratch space under the checkout root
CHILD = os.path.join(HERE, "child.py")

SLOTS = 24

# residuals must agree with the reference to roundoff: relative part for
# discretization-dominated residuals, absolute part for residuals that sit
# at the floating-point floor and change with the order of summation
RTOL = 1e-8
ATOL = 1e-10

APPLICABLE = ("pass", "fail")


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    # ranges of the catalog parameters a nonzero seed perturbs, chosen so
    # that every slot keeps slot 0's applicable checks and verdicts
    ranges: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tangent3d",
            ("--example", "flat-graph-tangent", "--scheme", "spectral", "--res", "24,32,48"),
            {"amplitude": (0.036, 0.044), "b": (0.36, 0.44)},
        ),
        Workload(
            "sphere-excised",
            ("--example", "sphere-latitudes", "--scheme", "spectral", "--res", "384"),
            {"eps": (0.225, 0.275), "asym": (0.54, 0.66)},
        ),
        Workload(
            "conformal-c4",
            (
                "--example", "conformal-torus", "--scheme", "central4",
                "--matrix-identities", "--res", "128,192,256",
            ),
            # at the defaults z-comparison fails with residual 1.13e-6 and
            # riccati-identity passes with 9.06e-7, both against a 1e-6
            # tolerance: eps1 below 0.35 flips the first, phi_amplitude above
            # 0.15 the second
            {"phi_amplitude": (0.135, 0.15), "eps1": (0.35, 0.385), "eps2": (0.225, 0.275)},
        ),
    )
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def slot_params(workload: Workload, slot: int) -> dict:
    """Catalog parameters of one slot; slot 0 passes none (catalog defaults)."""
    if slot == 0:
        return {}
    rng = random.Random(f"{workload.name}:{slot}")
    return {key: round(rng.uniform(lo, hi), 6) for key, (lo, hi) in sorted(workload.ranges.items())}


def cli_argv(workload: Workload, slot: int, out: str) -> list[str]:
    argv = list(workload.cli_args) + ["--formulas", "all", "--jobs", "1", "--seed", str(slot)]
    for key, value in slot_params(workload, slot).items():
        argv += ["--param", f"{key}={value!r}"]
    return argv + ["--out", out]


def child_env() -> dict:
    """Environment of every measured process: no job override, one BLAS thread."""
    env = dict(os.environ)
    env.pop("RANDERS_FOLIATE_JOBS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(mode: str, result_path: str, argv: list[str], log_path: str, timeout: float) -> dict | None:
    """Run one measured process; returns its result record, or None if it failed.

    ``subprocess.run`` kills the process on timeout and waits for it.
    """
    cmd = [sys.executable, CHILD, mode, result_path, "--"] + argv
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(
                cmd, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, timeout=max(timeout, 1.0),
            )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path) as fh:
        return json.load(fh)


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as fh:
        return json.load(fh)


def report_checks(report_text: str) -> dict:
    """formula_id -> (verdict, residual) of one JSON report."""
    payload = json.loads(report_text)
    return {r["formula_id"]: (r["verdict"], r["residual"]) for r in payload["reports"]}


def compare(checks: dict, exit_code: int, ref_slot: dict) -> dict:
    """Judge one report against its reference slot.

    ``attempted`` counts the checks the reference marks applicable, plus any
    check that became applicable.  ``departed`` counts checks whose
    verdict, applicability or residual departs from the reference beyond
    the roundoff band: these are failed operations.  ``failing`` counts the
    checks that fail for ``fail_share``: a departure or a ``fail`` verdict.
    ``notes`` lists every departure, and an exit code other than the
    reference's.
    """
    ref = ref_slot["checks"]
    attempted = departed = failing = 0
    notes = []
    for fid in sorted(set(ref) | set(checks)):
        want = ref.get(fid)
        got = checks.get(fid)
        if (want and want[0] in APPLICABLE) or (got and got[0] in APPLICABLE):
            attempted += 1
        ok = want is not None and got is not None and want[0] == got[0]
        if ok and got[0] in APPLICABLE:
            ok = abs(got[1] - want[1]) <= RTOL * abs(want[1]) + ATOL
        if not ok:
            departed += 1
            notes.append(f"{fid}: reference {want}, got {got}")
        if not ok or (got and got[0] == "fail"):
            failing += 1
    if exit_code != ref_slot["exit_code"]:
        notes.append(f"exit code {exit_code}, reference {ref_slot['exit_code']}")
    return {"attempted": attempted, "departed": departed, "failing": failing, "notes": notes}
