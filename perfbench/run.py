"""Benchmark of the randers-foliations verifier: full CLI sweeps, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tangent3d --seed 0 --seconds 30 --trace 0

Workloads (``--formulas all --jobs 1``; parameters in workloads.py):

  tangent3d       flat-graph-tangent, spectral, res 24,32,48: the only 3D
                  Berwald sweep; frame contractions, the d^4 Riemann array
                  and the batched invariants dominate it.
  sphere-excised  sphere-latitudes (rotational), spectral, res 384, default
                  r0 sweep: the masked, singular path; its sweep points share
                  every base field, so reuse across points can show here.
  conformal-c4    conformal-torus (generic), central4, res 128,192,256, with
                  the matrix-identity suite: the non-Berwald 2D path, stencil
                  derivatives, and the only workload that runs matinv.  It
                  carries a known false fail (z-comparison: convergence ratio
                  3.16 against 4 at a 1.33x refinement step), recorded in the
                  reference and counted in fail_share: 1 of 17 checks.

``--trace 0`` runs fresh-interpreter processes one at a time: five that only
import the package and resolve the config, then full sweeps until
``--seconds`` is spent (at least two; the last may end half a sweep late).
It prints the medians of

  sweep_s      wall time of ``cli.main`` from the parsed config to the report
  setup_s      import of ``randers_foliations`` plus config resolution
  peak_rss_mb  peak RSS of the process running one sweep (ru_maxrss / 1024)
  pass_share   1 - fail_share; fail_share is the share of attempted checks
               that raised, returned ``fail``, or departed from the reference

``--trace 1`` alternates untraced and traced sweeps (tracer.py) and prints
each layer's self time and counters from the traced sweep with the median
total, plus ``trace.overhead_s`` (median traced total minus median untraced
``sweep_s``).  The layer self times sum to ``trace.total_s``.

Which end-to-end metric each layer should move, and where it should not:

  extrinsic.frame_s          sweep_s on tangent3d; small on the 2D workloads
  manifold.curvature_s,      sweep_s, peak_rss_mb on tangent3d; zero on
    manifold.riemann_mb        sphere-excised (masked: curvature skipped)
  grid.deriv_s               sweep_s on tangent3d, sphere-excised (FFT); not
                               conformal-c4 (stencils)
  manifold.christoffel_computed, catalog.builds
                             sweep_s on sphere-excised (points share the base
                               fields); not the torus sweeps
  invariants.s               sweep_s on tangent3d (Berwald gate) only
  matinv.identities_s        sweep_s on conformal-c4 only
  verify.hyp_s               sweep_s on all three
  extrinsic.cached_mb        peak_rss_mb on tangent3d, sphere-excised

Every report is checked against the recorded reference of its seed's slot
(verdicts exactly, residuals to a roundoff band) and must be byte-identical
to the other reports of the run.  A departure counts as a failed operation
and makes the run incorrect.  Measured processes get ``--jobs 1``, no
``RANDERS_FOLIATE_JOBS`` and one BLAS thread; the benchmark measures only its
own processes and traces nothing machine-wide.  ``*_mb`` layer counters are
computed from array sizes, not measured traffic.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class Run:
    """One benchmark run: its processes, reports and correctness bookkeeping."""

    def __init__(self, workload: wl.Workload, seed: int, work: str):
        self.workload = workload
        self.slot = wl.slot_of(seed)
        self.ref = wl.load_reference(workload.name)["slots"][str(self.slot)]
        if self.ref["params"] != wl.slot_params(workload, self.slot):
            raise SystemExit(f"reference slot {self.slot} was recorded with other parameters")
        self.work = work
        self.t0 = perf_counter()
        self.attempted = self.departed = self.failing = 0
        self.first_report: str | None = None
        self.problems: list[str] = []
        self.versions: dict = {}
        self._n = 0

    def elapsed(self) -> float:
        return perf_counter() - self.t0

    def child(self, mode: str) -> dict | None:
        """One measured process; its report, if any, is checked here."""
        self._n += 1
        tag = f"{mode}{self._n}"
        out = os.path.join(self.work, f"{tag}.report.json")
        argv = wl.cli_argv(self.workload, self.slot, out)
        res = wl.run_child(
            mode, os.path.join(self.work, f"{tag}.result.json"), argv,
            os.path.join(self.work, f"{tag}.log"), DEADLINE_S - self.elapsed(),
        )
        if mode != "setup":
            self._check_report(tag, res, out)
        elif res is None:
            self.problems.append(f"{tag}: setup process failed")
        return res

    def _check_report(self, tag: str, res: dict | None, out: str) -> None:
        n_ref = sum(v[0] in wl.APPLICABLE for v in self.ref["checks"].values())
        if res is None or not os.path.exists(out):
            self.attempted += n_ref
            self.departed += n_ref
            self.failing += n_ref
            self.problems.append(f"{tag}: sweep raised or timed out (see {tag}.log)")
            return
        with open(out) as fh:
            text = fh.read()
        verdict = wl.compare(wl.report_checks(text), res["exit_code"], self.ref)
        self.attempted += verdict["attempted"]
        departed, failing = verdict["departed"], verdict["failing"]
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            departed = failing = verdict["attempted"]
            self.problems.append(f"{tag}: report not byte-identical to the first report")
        self.departed += departed
        self.failing += failing
        self.problems += [f"{tag}: {note}" for note in verdict["notes"]]

    def correct(self) -> bool:
        return not self.problems and self.departed == 0


def _median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def measure_end_to_end(run: Run, seconds: float) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES):
        res = run.child("setup")
        if res is not None:
            setup.append(res["setup_s"])
            run.versions = {k: res[k] for k in ("python", "numpy", "blas")}
    sweeps, rss, walls = [], [], []
    while True:
        start = perf_counter()
        res = run.child("sweep")
        walls.append(perf_counter() - start)
        if res is not None:
            sweeps.append(res["sweep_s"])
            setup.append(res["setup_s"])
            rss.append(res["peak_rss_mb"])
        # start another sweep while it would end at most half a sweep late
        enough = len(walls) >= 2 and run.elapsed() + 0.5 * _median(walls) > seconds
        if enough or run.elapsed() + _median(walls) > DEADLINE_S - 10:
            break
    if not sweeps or not setup:
        return {}
    fail_share = run.failing / max(run.attempted, 1)
    print(f"sweeps: {len(sweeps)}, setup samples: {len(setup)}")
    print(f"fail_share {fail_share:.6f} ratio ({run.failing} of {run.attempted} checks)")
    return {
        "sweep_s": (_median(sweeps), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "pass_share": (1.0 - fail_share, "ratio"),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    res = run.child("setup")
    if res is not None:
        run.versions = {k: res[k] for k in ("python", "numpy", "blas")}
    untraced, traced = [], []
    while True:
        start = perf_counter()
        plain = run.child("sweep")
        res = run.child("traced")
        pair_s = perf_counter() - start
        if plain is not None:
            untraced.append(plain["sweep_s"])
        if res is not None:
            traced.append(res)
            if res["unbound"]:
                print(f"trace: unbound {', '.join(res['unbound'])}", file=sys.stderr)
            if abs(res["self_sum_s"] - res["sweep_s"]) > 1e-9 * max(res["sweep_s"], 1.0):
                run.problems.append("layer self times do not sum to the traced total")
        if run.elapsed() + pair_s > min(seconds, DEADLINE_S - 10):
            break
    if not untraced or not traced:
        return {}
    traced.sort(key=lambda r: r["sweep_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = {}
    for name, value in chosen["layers"].items():
        unit = "s" if name.endswith("_s") or name == "invariants.s" else (
            "MB-computed" if name.endswith("_mb") else "count")
        metrics[name] = (value, unit)
    metrics["trace.total_s"] = (chosen["sweep_s"], "s")
    metrics["trace.overhead_s"] = (_median([r["sweep_s"] for r in traced]) - _median(untraced), "s")
    print(f"traced sweeps: {len(traced)}, untraced sweeps: {len(untraced)}, "
          f"spans in the reported sweep: {chosen['span_count']}")
    os.makedirs(wl.RUN_DIR, exist_ok=True)
    with open(os.path.join(wl.RUN_DIR, f"last_trace_{run.workload.name}.json"), "w") as fh:
        json.dump(chosen, fh, indent=1)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "randers_foliations", "cli.py")):
        print("error: run from the root of a randers-foliations checkout "
              "(src/randers_foliations not found)", file=sys.stderr)
        return 2
    if not os.path.isfile(wl.reference_path(args.workload)):
        print(f"error: no reference recorded for {args.workload}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    os.makedirs(wl.RUN_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=wl.RUN_DIR)
    try:
        run = Run(workload, args.seed, work)
        print(f"workload {workload.name} seed {args.seed} slot {run.slot} "
              f"params {json.dumps(wl.slot_params(workload, run.slot))}")
        if args.trace:
            metrics = measure_layers(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
        env = {
            "nproc": len(os.sched_getaffinity(0)),
            **run.versions,
            "blas_threads": 1,
            "jobs": 1,
            "machine_wide_tracing": "none; only the benchmark's own processes are measured",
        }
        print("env " + json.dumps(env))
        for problem in run.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        if not metrics:
            print("error: no sweep completed", file=sys.stderr)
            return 1
        for name, (value, unit) in metrics.items():
            print(f"{name:<32s} {value:.6g} {unit}")
        ok = run.correct()
        print(json.dumps({
            "correct": ok,
            "attempted": run.attempted,
            "failed": run.departed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
