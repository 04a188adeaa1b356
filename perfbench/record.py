"""Record the per-slot reference of every check's verdict and residual.

Usage, from the root of a checkout::

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untraced sweep per parameter slot (workloads.SLOTS of them) and
writes ``perfbench/reference/<workload>.json``.  Refuses to write a
reference in which a perturbed slot changes the applicable-check set or any
verdict of slot 0 (the catalog defaults), so that ``pass_share`` does not
depend on the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def record(workload: wl.Workload, work: str) -> dict:
    slots = {}
    for slot in range(wl.SLOTS):
        out = os.path.join(work, f"{slot}.report.json")
        res = wl.run_child(
            "sweep", os.path.join(work, f"{slot}.result.json"),
            wl.cli_argv(workload, slot, out), os.path.join(work, f"{slot}.log"), 600.0,
        )
        if res is None:
            raise SystemExit(f"{workload.name} slot {slot}: sweep failed, see {work}/{slot}.log")
        with open(out) as fh:
            checks = wl.report_checks(fh.read())
        slots[str(slot)] = {
            "params": wl.slot_params(workload, slot),
            "exit_code": res["exit_code"],
            "checks": {fid: list(v) for fid, v in sorted(checks.items())},
        }
        verdicts = {fid: v[0] for fid, v in checks.items()}
        base = {fid: v[0] for fid, v in slots["0"]["checks"].items()}
        if verdicts != base:
            changed = sorted(fid for fid in set(base) | set(verdicts)
                             if base.get(fid) != verdicts.get(fid))
            raise SystemExit(f"{workload.name} slot {slot}: verdicts differ from slot 0: {changed}")
        print(f"{workload.name} slot {slot}: {res['sweep_s']:.2f} s, exit {res['exit_code']}",
              flush=True)
    return {
        "workload": workload.name,
        "cli_args": list(workload.cli_args),
        "band": {"rtol": wl.RTOL, "atol": wl.ATOL},
        "slots": slots,
    }


def main(names: list[str]) -> int:
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(wl.WORKLOADS):
        os.makedirs(wl.RUN_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=wl.RUN_DIR)
        try:
            ref = record(wl.WORKLOADS[name], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(wl.reference_path(name), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
