"""Spans around the verifier's layers, recorded from outside the package.

The traced run executes the same ``cli.main`` sweep as the untraced run.
Before it starts, ``Tracer.install`` rebinds each layer's public functions
where the verifier looks them up (module globals, bundle attributes and the
formula registry) to wrappers that open and close a span.  Spans nest, so
each layer's self time is its span time minus the time of the spans opened
inside it, and the self times of all layers sum to the root span: the traced
total.  The root's own self time (CLI, judging, report write) is reported as
``cli.other_s``.

Counters are taken at the same boundaries.  ``*_mb`` counters are computed
from array sizes (``ndarray.nbytes``), not measured memory traffic.
A missing binding (a later refactor may move one) is skipped and reported on
stderr; its layer then reads 0 and its time falls to the caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

MB = 1e6

# layer name -> bundle attributes timed as that layer
BUNDLE_FIELDS = {
    "extrinsic.metric": ("g", "gamma_g"),
    "extrinsic.frame": ("frame", "op_to_frame", "vec_to_frame"),
    "extrinsic.direct": ("Ag_direct", "Z_direct", "Csharp_direct", "A_frame"),
    "extrinsic.formula": ("Ag_formula", "Z_formula", "Csharp_formula"),
    "extrinsic.eig": ("principal_curvatures",),
}

# metrics reported by the traced run, in print order
LAYER_TIMES = (
    "catalog.build", "grid.deriv", "grid.quad", "manifold.christoffel", "manifold.bar",
    "manifold.curvature", "extrinsic.metric", "extrinsic.frame", "extrinsic.direct",
    "extrinsic.formula", "extrinsic.eig", "invariants", "verify.hyp", "verify.eval",
    "matinv.identities", "report.serialize", "cli.other",
)


def _self_metric(layer: str) -> str:
    return "invariants.s" if layer == "invariants" else f"{layer}_s"


class _FirstSeen:
    """Counts results not returned before: cache misses of a memoised call."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def is_new(self, obj) -> bool:
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True


def _held_bytes(bundle) -> int:
    """Bytes of the distinct arrays a bundle holds in its cached fields."""
    seen: set[int] = set()
    total = 0

    def add(value):
        nonlocal total
        if isinstance(value, np.ndarray):
            if id(value) not in seen:
                seen.add(id(value))
                total += value.nbytes
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                add(getattr(value, f.name))
        elif isinstance(value, (tuple, list)):
            for item in value:
                add(item)

    for key, value in vars(bundle).items():
        if key != "M":
            add(value)
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.unbound: list[str] = []
        self.bundles: list = []
        self.total_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child_s.append(0.0)
        self.spans.append([name, perf_counter(), None, parent])

    def _close(self) -> float:
        end = perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        return duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_root(self, fn, *args):
        self._open("cli.other")
        try:
            return fn(*args)
        finally:
            self.total_s = self._close()

    # -- installation ----------------------------------------------------------

    def _count(self, key: str):
        def after(args, result):
            self.counts[key] += 1

        return after

    def _rebind(self, module: str, attr: str, name: str, after=None) -> None:
        mod = importlib.import_module(f"randers_foliations.{module}")
        fn = getattr(mod, attr, None)
        if fn is None:
            self.unbound.append(f"{module}.{attr}")
            return
        setattr(mod, attr, self.wrap(name, fn, after))

    def _rebind_bundle_field(self, cls, attr: str, name: str, after=None) -> None:
        current = cls.__dict__.get(attr)
        if isinstance(current, functools.cached_property):
            new = functools.cached_property(self.wrap(name, current.func, after))
            new.__set_name__(cls, attr)
        elif callable(current):
            new = self.wrap(name, current, after)
        else:
            self.unbound.append(f"ExtrinsicBundle.{attr}")
            return
        setattr(cls, attr, new)

    def install(self) -> None:
        from randers_foliations import extrinsic, verify

        christoffel_new, curvature_new = _FirstSeen(), _FirstSeen()

        def christoffel_miss(args, result):
            self.counts["manifold.christoffel_computed"] += christoffel_new.is_new(result)

        def curvature_miss(args, result):
            if curvature_new.is_new(result):
                riemann = getattr(result, "riemann", None)
                self.counts["manifold.riemann_mb"] += 0 if riemann is None else riemann.nbytes / MB

        def deriv_after(args, result):
            self.counts["grid.deriv_calls"] += 1
            self.counts["grid.deriv_mb"] += np.asarray(args[0]).nbytes / MB

        self._rebind("verify", "build_example", "catalog.build", self._count("catalog.builds"))
        for module in ("manifold", "extrinsic", "verify"):
            self._rebind(module, "derivative_values", "grid.deriv", deriv_after)
        self._rebind("manifold", "trapezoid_integral", "grid.quad", self._count("grid.quad_calls"))
        for module in ("manifold", "extrinsic"):
            self._rebind(module, "levi_civita", "manifold.christoffel", christoffel_miss)
        self._rebind("extrinsic", "extrinsic_bar", "manifold.bar")
        self._rebind("verify", "curvature_bar", "manifold.curvature", curvature_miss)
        for fn in ("sigma_k", "sigma_multi_batched", "newton_transform_batched"):
            self._rebind("verify", fn, "invariants", self._count("invariants.calls"))
        self._rebind("verify", "hypothesis_profile", "verify.hyp")
        self._rebind("cli", "verify_appendix_identities", "matinv.identities")
        self._rebind("cli", "reports_to_json", "report.serialize")

        projections = self._count("extrinsic.proj_calls")
        for layer, attrs in BUNDLE_FIELDS.items():
            for attr in attrs:
                after = projections if attr in ("op_to_frame", "vec_to_frame") else None
                self._rebind_bundle_field(extrinsic.ExtrinsicBundle, attr, layer, after)

        build_extrinsic = getattr(verify, "build_extrinsic", None)
        if build_extrinsic is None:
            self.unbound.append("verify.build_extrinsic")
        else:
            def keep_bundle(*args, **kwargs):
                bundle = build_extrinsic(*args, **kwargs)
                self.bundles.append(bundle)
                return bundle

            verify.build_extrinsic = keep_bundle

        checks = self._count("verify.checks_applicable")
        try:
            for fid, formula in list(verify.FORMULAS.items()):
                verify.FORMULAS[fid] = dataclasses.replace(
                    formula, evaluate=self.wrap("verify.eval", formula.evaluate, checks)
                )
        except (AttributeError, TypeError):
            self.unbound.append("verify.FORMULAS")

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        layers = {_self_metric(name): self.self_s.get(name, 0.0) for name in LAYER_TIMES}
        for key in ("catalog.builds", "grid.deriv_calls", "grid.deriv_mb", "grid.quad_calls",
                    "manifold.christoffel_computed", "manifold.riemann_mb",
                    "extrinsic.proj_calls", "invariants.calls", "verify.checks_applicable"):
            layers[key] = self.counts.get(key, 0)
        layers["extrinsic.cached_mb"] = max((_held_bytes(b) for b in self.bundles), default=0) / MB
        return {
            "sweep_s": self.total_s,
            "layers": layers,
            "unbound": self.unbound,
            "span_count": len(self.spans),
            # [name, start, end, parent index], times from the root's start
            "spans": [[n, a - t0, b - t0, p] for n, a, b, p in self.spans],
            "self_sum_s": sum(self.self_s.values()),
        }
