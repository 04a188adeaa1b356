"""Catalog of concrete foliated Randers manifolds.

Every example lives on a single periodic chart.  The foliations are exact by
construction (level sets of explicit functions), so integrability never has
to be checked numerically.

Each example's builder, default resolutions, description (``--list``) and
parameter rows are listed once, in ``_EXAMPLES`` and ``PARAMS`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .grid import PeriodicGrid
from .manifold import FoliatedRandersManifold

__all__ = [
    "ExampleError",
    "ExampleSpec",
    "Param",
    "PARAMS",
    "build_example",
    "example_names",
    "example_info",
    "default_resolutions",
    "param_help",
    "parse_params",
    "resolve_params",
    "r0_sweep",
]


class ExampleError(ValueError):
    """An example cannot be built from the given name or parameters."""


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    params: dict = field(default_factory=dict)


def _flat_parallel(p: dict) -> FoliatedRandersManifold:
    n, L, bs = p["n"], p["period"], np.asarray(p["beta_sharp"])
    if np.linalg.norm(bs) >= 1.0:
        raise ValueError("|beta| must be < 1")
    grid = PeriodicGrid((n, n, n), (L, L, L))
    shape = grid.sizes
    a = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    N = np.zeros(shape + (3,))
    N[..., 2] = 1.0
    beta = np.broadcast_to(bs, shape + (3,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-parallel")


def _graph_slope(x: np.ndarray, L: float, amp: float) -> np.ndarray:
    """phi'(x) of the leaf profile phi = amp (sin(w x) + cos(2 w x) / 2), w = 2 pi / L."""
    w = 2.0 * np.pi / L
    return amp * w * (np.cos(w * x) - np.sin(2.0 * w * x))


def _flat_graph(p: dict) -> FoliatedRandersManifold:
    n, L, bs = p["n"], p["period"], np.asarray(p["beta_sharp"])
    grid = PeriodicGrid((n, n), (L, L))
    x, _y = grid.meshgrid()
    dphi = _graph_slope(x, L, p["amplitude"])
    W = np.sqrt(1.0 + dphi**2)
    shape = grid.sizes
    a = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    N = np.stack([-dphi / W, 1.0 / W], axis=-1)
    norm = np.linalg.norm(bs)
    if norm >= 1.0:
        raise ValueError("|beta| must be < 1")
    # beta_sharp must stay nowhere parallel to N (beta = 0 is parallel to nothing)
    if norm > 0.0 and np.abs(N @ bs).max() >= (1.0 - 1e-6) * norm:
        raise ValueError("beta_sharp is parallel to N somewhere; leaves would be orthogonal")
    beta = np.broadcast_to(bs, shape + (2,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-graph")


def _flat_graph_tangent(p: dict) -> FoliatedRandersManifold:
    n, L = p["n"], p["period"]
    grid = PeriodicGrid((n, n, n), (L, L, L))
    x = grid.meshgrid()[0]
    dphi = _graph_slope(x, L, p["amplitude"])
    W = np.sqrt(1.0 + dphi**2)
    shape = grid.sizes
    a = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    N = np.stack([-dphi / W, np.zeros_like(W), 1.0 / W], axis=-1)
    beta = np.broadcast_to(np.array([0.0, p["b"], 0.0]), shape + (3,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-graph-tangent")


def _conformal_torus(p: dict) -> FoliatedRandersManifold:
    n, L, amp, mode = p["n"], p["period"], p["phi_amplitude"], p["beta_mode"]
    grid = PeriodicGrid((n, n), (L, L))
    x, y = grid.meshgrid()
    w = 2.0 * np.pi / L
    phi = amp * (np.sin(w * x) * np.cos(w * y) + 0.4 * np.cos(w * x) + 0.3 * np.sin(w * y))
    e2p = np.exp(2.0 * phi)
    shape = grid.sizes
    a = e2p[..., None, None] * np.eye(2)
    emp = np.exp(-phi)
    N = np.stack([np.zeros(shape), emp], axis=-1)
    if mode == "riemannian":
        bsharp = np.zeros(shape + (2,))
    elif mode == "generic":
        u = np.sin(w * x + 0.7) * np.cos(w * y)
        v = np.cos(w * x) * np.sin(w * y + 0.3)
        bsharp = np.stack([p["eps1"] * u * emp, p["eps2"] * v * emp], axis=-1)
    else:  # constant-angle
        bsharp = np.stack([p["eps1"] * emp, p["eps2"] * emp], axis=-1)
    beta = np.einsum("...ij,...j->...i", a, bsharp)
    return FoliatedRandersManifold(
        grid, a, beta, N, name=f"conformal-torus[{mode}]", beta_sharp_given=bsharp
    )


def _sphere_latitudes(p: dict) -> FoliatedRandersManifold:
    n, r0, mode, eps = p["n"], p["r0"], p["beta_mode"], p["eps"]
    grid = PeriodicGrid((n, n), (np.pi, 2.0 * np.pi))
    if r0 < 2.0 * max(grid.spacings):
        raise ValueError(
            f"excision radius {r0} too small for spacing {max(grid.spacings):.4f}; "
            "derivative stencils would touch the poles"
        )
    theta, _phi = grid.meshgrid()
    s, c2 = np.sin(theta), np.sin(2.0 * theta)
    shape = grid.sizes
    a = np.zeros(shape + (2, 2))
    a[..., 0, 0] = 1.0
    a[..., 1, 1] = s**2
    N = np.zeros(shape + (2,))
    N[..., 0] = 1.0
    mask = np.minimum(theta, np.pi - theta) > r0
    if mode == "rotational":
        profile = eps * (1.0 + p["asym"] * c2)
        if np.max(np.abs(profile) * s) >= 1.0:
            raise ValueError("rotational beta profile exceeds the norm bound")
        bsharp = np.zeros(shape + (2,))
        bsharp[..., 1] = profile
        beta = np.zeros(shape + (2,))
        beta[..., 1] = profile * s**2
    else:
        # eigen: beta_sharp = eps' X + eps N with X the unit latitude direction
        # field; X does not extend over the poles, so beta is singular on the
        # excised set
        epsp = p["eps_prime"]
        if epsp**2 + eps**2 >= 1.0:
            raise ValueError("eigen-mode coefficients exceed the norm bound")
        s_safe = np.where(np.abs(s) > 1e-12, s, 1.0)
        bsharp = np.zeros(shape + (2,))
        bsharp[..., 0] = eps
        bsharp[..., 1] = epsp / s_safe
        beta = np.zeros(shape + (2,))
        beta[..., 0] = eps
        beta[..., 1] = epsp * s
    return FoliatedRandersManifold(
        grid, a, beta, N, mask=mask, name=f"sphere-latitudes[{mode}]", excision_radius=r0,
        beta_sharp_given=bsharp, beta_singular=(mode == "eigen"),
    )


# name: (builder, default resolutions, description); the excised sphere sweeps
# the excision radius at the finest grid, so one resolution is its default
_EXAMPLES = {
    "flat-parallel": (
        _flat_parallel, (12, 16),
        "flat T^3, parallel leaves, constant tilted beta; Berwald, flat, "
        "Abar = Zbar = 0; exercises every formula trivially and the "
        "totally-geodesic and equality cases of the bounds",
    ),
    "flat-graph": (
        _flat_graph, (48, 64),
        "flat T^2, graph leaves, constant beta, beta(N) varying; Berwald, "
        "flat curvature: exercises the shape-operator comparison, the "
        "parallel-field second-order formula, the Berwald sigma_k series "
        "and the flat total-curvature values",
    ),
    "flat-graph-tangent": (
        _flat_graph_tangent, (24, 32),
        "flat T^3, graph leaves along x, constant beta tangent to leaves; "
        "Berwald, beta(N) = 0 constant: adds the constant-angle variants "
        "and the parallel-tangent vanishing conclusions",
    ),
    "conformal-torus": (
        _conformal_torus, (48, 64),
        "conformally flat T^2, coordinate leaves, smooth non-parallel beta; "
        "exercises the general first-order balance, the weighted mean "
        "curvature formula and (beta_mode=riemannian) the curvature-route "
        "second-order identity",
    ),
    "sphere-latitudes": (
        _sphere_latitudes, (256,),
        "round S^2, latitude leaves, poles excised at radius r0: the "
        "singular-foliation regime; beta_mode=eigen runs the principal "
        "direction construction with constant c and beta(N)",
    ),
}

_FINITE, _POSITIVE, _UNIT = ((-math.inf, math.inf),), ((0.0, math.inf),), ((-1.0, 1.0),)
_RADIUS = ((0.0, math.pi / 2),)  # a larger excision radius leaves no active node


class Param(NamedTuple):
    """One parameter row.  ``kind`` is ``number``, ``tuple`` (``arity``
    components; None: one or more) or ``choice`` (one of the strings
    ``bounds``); a number and each tuple component lie in one of the open
    intervals ``bounds``.  A dict default ``{beta_mode: value}`` names the
    modes that read the row, and must follow the ``beta_mode`` row."""

    default: object
    kind: str = "number"
    arity: int | None = 1
    bounds: tuple = _FINITE


# every parameter each example accepts; the resolution sweep sets the grid size n
PARAMS = {
    "flat-parallel": {
        "period": Param(1.0, bounds=_POSITIVE),
        "beta_sharp": Param((0.3, 0.0, 0.4), "tuple", 3, _UNIT),
    },
    "flat-graph": {
        "period": Param(1.0, bounds=_POSITIVE),
        "amplitude": Param(0.05),
        "beta_sharp": Param((0.3, 0.15), "tuple", 2, _UNIT),
    },
    "flat-graph-tangent": {
        "period": Param(1.0, bounds=_POSITIVE),
        "amplitude": Param(0.04),
        # the only beta component, tangent to the leaves; 0 would make beta vanish
        "b": Param(0.4, bounds=((-1.0, 0.0), (0.0, 1.0))),
    },
    "conformal-torus": {
        "period": Param(1.0, bounds=_POSITIVE),
        "phi_amplitude": Param(0.15),
        "beta_mode": Param("generic", "choice", bounds=("generic", "constant-angle", "riemannian")),
        "eps1": Param({"generic": 0.35, "constant-angle": 0.4}, bounds=_UNIT),
        "eps2": Param({"generic": 0.25, "constant-angle": 0.25}, bounds=_UNIT),
    },
    "sphere-latitudes": {
        "r0": Param(0.1, bounds=_RADIUS),
        "r0_sweep": Param((0.2, 0.1, 0.05), "tuple", None, _RADIUS),  # read by r0_sweep
        "beta_mode": Param("rotational", "choice", bounds=("rotational", "eigen")),
        "eps": Param(0.25, bounds=_UNIT),
        "asym": Param({"rotational": 0.6}),
        "eps_prime": Param({"eigen": 0.3}, bounds=_UNIT),
    },
}


def example_names() -> list[str]:
    return sorted(_EXAMPLES)


def example_info(name: str) -> str:
    return _EXAMPLES[name][2]


def default_resolutions(name: str) -> tuple[int, ...]:
    return _EXAMPLES[name][1]


def _intervals(bounds: tuple) -> str:
    return " or ".join(f"({lo:g}, {hi:g})" for lo, hi in bounds)


def param_help(name: str) -> list[str]:
    """One line per row: kind, arity, bounds and the default of each beta_mode."""
    lines = []
    for key, row in PARAMS[name].items():
        kind = f"tuple[{row.arity or '1+'}]" if row.kind == "tuple" else row.kind
        bounds = "|".join(row.bounds) if row.kind == "choice" else _intervals(row.bounds)
        lines.append(f"{key:<14s} {kind} in {bounds}; default {row.default}")
    return lines


def parse_params(name: str, texts: dict[str, str]) -> dict:
    """``--param`` text parsed by each row's kind and validated: a choice keeps
    its text, anything else becomes a float or, with commas, a tuple of them."""
    rows, params = PARAMS.get(name, {}), {}
    for key, text in texts.items():
        items = tuple(map(_number, text.split(",")))
        choice = key in rows and rows[key].kind == "choice"
        params[key] = text if choice else items[0] if len(items) == 1 else items
    resolve_params(name, params)
    return params


def _number(token: str) -> float | str:
    try:
        return float(token)
    except ValueError:
        return token.strip()


def _check(where: str, row: Param, value):
    """One given value against its row; numbers come back as floats."""
    if row.kind == "choice":
        if not (isinstance(value, str) and value in row.bounds):
            raise ExampleError(f"{where} must be one of {'|'.join(row.bounds)}, got {value!r}")
        return value
    many = isinstance(value, (tuple, list))
    items = tuple(value) if many else (value,)
    if any(isinstance(v, bool) or not isinstance(v, Real) for v in items):
        raise ExampleError(f"{where} expects numbers, got {value!r}")
    if not all(map(math.isfinite, items)):
        raise ExampleError(f"{where} value {value} is not finite")
    if row.kind == "number" and many:
        raise ExampleError(f"{where} takes one value, got {value}")
    if len(items) != (row.arity or max(len(items), 1)):
        raise ExampleError(f"{where} takes {row.arity or '1 or more'} values, got {len(items)}")
    if not all(any(lo < v < hi for lo, hi in row.bounds) for v in items):
        raise ExampleError(f"{where} must lie in {_intervals(row.bounds)}, got {value}")
    return tuple(map(float, items)) if row.kind == "tuple" else float(value)


def resolve_params(name: str, params: dict) -> dict:
    """The values an example builds from: ``params`` checked against its rows,
    with the defaults of the selected ``beta_mode`` filled in, and the grid
    size ``n`` (default: the finest default resolution)."""
    if name not in PARAMS:
        raise ExampleError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    rows = PARAMS[name]
    unknown = sorted(set(params) - set(rows) - {"n"})
    if unknown:
        raise ExampleError(
            f"unknown parameter(s) {', '.join(unknown)} for {name}; accepted: {', '.join(rows)}"
        )
    if "r0" in params and "r0_sweep" in params:
        raise ExampleError("give r0 (a one-point sweep) or r0_sweep, not both")
    n = params["n"] if "n" in params else max(default_resolutions(name))
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ExampleError(f"{name}: grid size n must be an integer, got {n!r}")
    resolved, mode = {"n": int(n)}, None
    for key, row in rows.items():
        modes = row.default if isinstance(row.default, dict) else {mode: row.default}
        if mode in modes:
            where = f"{name}: parameter {key}"
            resolved[key] = _check(where, row, params[key]) if key in params else modes[mode]
        elif key in params:
            raise ExampleError(f"{name}: parameter {key} is not read under beta_mode={mode}, "
                               f"only under {', '.join(modes)}")
        mode = resolved["beta_mode"] if key == "beta_mode" else mode
    return resolved


def r0_sweep(spec: ExampleSpec) -> tuple[float, ...] | None:
    """Excision radii an excised example sweeps, largest first; None for the tori.

    Only ``sphere-latitudes`` excises (its poles): its residuals are limited by
    the cap truncation, so it sweeps ``r0`` at the finest grid, over the
    ``r0_sweep`` row, or over an explicit ``r0`` alone (a one-point sweep).
    """
    p = resolve_params(spec.name, spec.params)
    if "r0_sweep" not in p:
        return None
    return tuple(sorted((p["r0"],) if "r0" in spec.params else p["r0_sweep"], reverse=True))


def build_example(spec: ExampleSpec) -> FoliatedRandersManifold:
    """Construct a catalog manifold; raises ExampleError for parameters that
    fail their rows (see ``resolve_params``) or the builder's own checks."""
    p = resolve_params(spec.name, spec.params)
    try:
        return _EXAMPLES[spec.name][0](p)
    except ValueError as exc:
        raise ExampleError(f"{spec.name}: {exc}") from exc
