"""Catalog of concrete foliated Randers manifolds.

Every example lives on a single periodic chart.  The foliations are exact by
construction (level sets of explicit functions), so integrability never has
to be checked numerically.

Each example's builder, default resolutions, description (``--list``) and
parameter rows are listed once, in one row of ``EXAMPLES`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .grid import PeriodicGrid
from .manifold import FoliatedRandersManifold

__all__ = [
    "EXAMPLES",
    "Example",
    "ExampleError",
    "ExampleSpec",
    "Param",
    "build_example",
    "example_names",
    "param_help",
    "parse_params",
    "resolve_params",
    "sweep_points",
]


class ExampleError(ValueError):
    """An example cannot be built from the given name or parameters."""


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    params: dict = field(default_factory=dict)


def _graph_slope(x: np.ndarray, L: float, amp: float) -> np.ndarray:
    """phi'(x) of the leaf profile phi = amp (sin(w x) + cos(2 w x) / 2), w = 2 pi / L."""
    w = 2.0 * np.pi / L
    return amp * w * (np.cos(w * x) - np.sin(2.0 * w * x))


def _flat_torus(name: str, p: dict, beta_sharp: tuple, amplitude: float | None = None) -> FoliatedRandersManifold:
    """Flat T^d, d = len(beta_sharp), with a = I and the constant beta = beta_sharp;
    the leaves are the planes x_d = const, or with ``amplitude`` the graphs
    x_d = phi(x_1) + const."""
    if np.linalg.norm(beta_sharp) >= 1.0:
        raise ValueError("|beta| must be < 1")
    n, L, d = p["n"], p["period"], len(beta_sharp)
    grid = PeriodicGrid((n,) * d, (L,) * d)
    shape = grid.sizes
    # the slope's temporaries are allocated before a, and beta_sharp stays a tuple
    # until beta: with either changed, perfbench tangent3d's peak RSS read 208-209 MB
    # in place of 202 MB (heap placement; 2-core Linux host, numpy 2.4)
    if amplitude is not None:
        x = grid.meshgrid()[0]
        dphi = _graph_slope(x, L, amplitude)
        W = np.sqrt(1.0 + dphi**2)
    a = np.broadcast_to(np.eye(d), shape + (d, d)).copy()
    if amplitude is None:
        N = np.zeros(shape + (d,))
        N[..., -1] = 1.0
    else:
        N = np.stack([-dphi / W, *[np.zeros_like(W)] * (d - 2), 1.0 / W], axis=-1)
    beta = np.broadcast_to(beta_sharp, shape + (d,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name=name)


def _flat_parallel(p: dict) -> FoliatedRandersManifold:
    return _flat_torus("flat-parallel", p, p["beta_sharp"])


def _flat_graph(p: dict) -> FoliatedRandersManifold:
    M = _flat_torus("flat-graph", p, p["beta_sharp"], p["amplitude"])
    bs = np.asarray(p["beta_sharp"])
    norm = np.linalg.norm(bs)
    # beta_sharp must stay nowhere parallel to N (beta = 0 is parallel to nothing)
    if norm > 0.0 and np.abs(M.N @ bs).max() >= (1.0 - 1e-6) * norm:
        raise ValueError("beta_sharp is parallel to N somewhere; leaves would be orthogonal")
    return M


def _flat_graph_tangent(p: dict) -> FoliatedRandersManifold:
    return _flat_torus("flat-graph-tangent", p, (0.0, p["b"], 0.0), p["amplitude"])


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


def _sphere_grid(n: int) -> PeriodicGrid:
    """The (theta, phi) chart of the sphere: colatitude theta in [0, pi), longitude phi."""
    return PeriodicGrid((n, n), (np.pi, 2.0 * np.pi))


def _excision_mask(grid: PeriodicGrid, r0: float) -> np.ndarray:
    """Nodes farther than r0 from both poles; raises ValueError if the grid
    cannot resolve r0 or no node lies beyond it."""
    # derivative stencils must not touch the poles: r0 >= 2 h, where the
    # 2 pi period of phi sets the largest spacing h = 2 pi / n
    if r0 < 2.0 * max(grid.spacings):
        need = 4.0 * math.pi / r0  # inf for a subnormal r0
        fix = f"the smallest n that admits it is {math.ceil(need)}" if math.isfinite(need) else "no n admits it"
        raise ValueError(
            f"excision radius {r0} is below 2 * (2 pi / n) = {2.0 * max(grid.spacings):.4f} "
            f"at n = {grid.sizes[0]}; {fix}"
        )
    theta = grid.meshgrid()[0]
    distance = np.minimum(theta, np.pi - theta)
    if not distance.max() > r0:  # odd n puts no row on the equator
        raise ValueError(
            f"excision radius {r0} leaves no node at n = {grid.sizes[0]}; "
            f"it must be below {grid.sizes[0] // 2} pi / n = {distance.max():.4f}"
        )
    return distance > r0


def _sphere_latitudes(p: dict) -> FoliatedRandersManifold:
    n, mode, eps = p["n"], p["beta_mode"], p["eps"]
    grid = _sphere_grid(n)
    mask = _excision_mask(grid, min(p["r0"]))  # the smallest radius keeps every other's nodes
    theta, _phi = grid.meshgrid()
    s, c2 = np.sin(theta), np.sin(2.0 * theta)
    shape = grid.sizes
    a = np.zeros(shape + (2, 2))
    a[..., 0, 0] = 1.0
    a[..., 1, 1] = s**2
    N = np.zeros(shape + (2,))
    N[..., 0] = 1.0
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
        grid, a, beta, N, mask=mask, name=f"sphere-latitudes[{mode}]",
        beta_sharp_given=bsharp, beta_singular=(mode == "eigen"),
    )


_FINITE, _POSITIVE, _UNIT = ((-math.inf, math.inf),), ((0.0, math.inf),), ((-1.0, 1.0),)
_RADIUS = ((0.0, math.pi / 2),)  # _excision_mask also rejects a radius no node lies beyond (odd n)


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


class Example(NamedTuple):
    """One catalog row: the builder, the default resolutions, the ``--list``
    description and every parameter the example accepts (the resolution
    sweep sets the grid size n)."""

    build: Callable[[dict], FoliatedRandersManifold]
    resolutions: tuple[int, ...]
    description: str
    params: dict[str, Param]


# the excised sphere sweeps the excision radius at one grid size, so one
# resolution is its default
EXAMPLES = {
    "flat-parallel": Example(
        _flat_parallel, (12, 16),
        "flat T^3, parallel leaves, constant tilted beta; Berwald, flat, "
        "Abar = Zbar = 0; exercises every formula trivially and the "
        "totally-geodesic and equality cases of the bounds",
        {"period": Param(1.0, bounds=_POSITIVE),
         "beta_sharp": Param((0.3, 0.0, 0.4), "tuple", 3, _UNIT)},
    ),
    "flat-graph": Example(
        _flat_graph, (48, 64),
        "flat T^2, graph leaves, constant beta, beta(N) varying; Berwald, "
        "flat curvature: exercises the shape-operator comparison, the "
        "parallel-field second-order formula, the Berwald sigma_k series "
        "and the flat total-curvature values",
        {"period": Param(1.0, bounds=_POSITIVE),
         "amplitude": Param(0.05),
         "beta_sharp": Param((0.3, 0.15), "tuple", 2, _UNIT)},
    ),
    "flat-graph-tangent": Example(
        _flat_graph_tangent, (24, 32),
        "flat T^3, graph leaves along x, constant beta tangent to leaves; "
        "Berwald, beta(N) = 0 constant: adds the constant-angle variants "
        "and the parallel-tangent vanishing conclusions",
        {"period": Param(1.0, bounds=_POSITIVE),
         "amplitude": Param(0.04),
         # the only beta component, tangent to the leaves; 0 would make beta vanish
         "b": Param(0.4, bounds=((-1.0, 0.0), (0.0, 1.0)))},
    ),
    "conformal-torus": Example(
        _conformal_torus, (48, 64),
        "conformally flat T^2, coordinate leaves, smooth non-parallel beta; "
        "exercises the general first-order balance, the weighted mean "
        "curvature formula and (beta_mode=riemannian) the curvature-route "
        "second-order identity",
        {"period": Param(1.0, bounds=_POSITIVE),
         "phi_amplitude": Param(0.15),
         "beta_mode": Param("generic", "choice", bounds=("generic", "constant-angle", "riemannian")),
         "eps1": Param({"generic": 0.35, "constant-angle": 0.4}, bounds=_UNIT),
         "eps2": Param({"generic": 0.25, "constant-angle": 0.25}, bounds=_UNIT)},
    ),
    "sphere-latitudes": Example(
        _sphere_latitudes, (256,),
        "round S^2, latitude leaves, poles excised at radius r0: the "
        "singular-foliation regime; beta_mode=eigen runs the principal "
        "direction construction with constant c and beta(N)",
        {"r0": Param((0.2, 0.1, 0.05), "tuple", None, _RADIUS),  # the radii sweep_points sweeps
         "beta_mode": Param("rotational", "choice", bounds=("rotational", "eigen")),
         "eps": Param(0.25, bounds=_UNIT),
         "asym": Param({"rotational": 0.6}),
         "eps_prime": Param({"eigen": 0.3}, bounds=_UNIT)},
    ),
}


def example_names() -> list[str]:
    return sorted(EXAMPLES)


def _example(name: str) -> Example:
    if name not in EXAMPLES:
        raise ExampleError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    return EXAMPLES[name]


def _intervals(bounds: tuple) -> str:
    return " or ".join(f"({lo:g}, {hi:g})" for lo, hi in bounds)


def param_help(name: str) -> list[str]:
    """One line per row: kind, arity, bounds and the default of each beta_mode."""
    lines = []
    for key, row in EXAMPLES[name].params.items():
        kind = f"tuple[{row.arity or '1+'}]" if row.kind == "tuple" else row.kind
        bounds = "|".join(row.bounds) if row.kind == "choice" else _intervals(row.bounds)
        lines.append(f"{key:<14s} {kind} in {bounds}; default {row.default}")
    return lines


def parse_params(name: str, texts: dict[str, str]) -> dict:
    """``--param`` text parsed by each row's kind and validated: a choice keeps
    its text, anything else becomes a float or, with commas, a tuple of them."""
    rows, params = _example(name).params, {}
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
    example = _example(name)
    rows = example.params
    unknown = sorted(set(params) - set(rows) - {"n"})
    if unknown:
        raise ExampleError(
            f"unknown parameter(s) {', '.join(unknown)} for {name}; accepted: {', '.join(rows)}"
        )
    n = params["n"] if "n" in params else max(example.resolutions)
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


def sweep_points(spec: ExampleSpec, resolutions: list[int]) -> list[tuple[ExampleSpec, list | None]]:
    """The points of a sweep: the spec each builds and its labelled judging masks.

    A torus gives one point per distinct grid size, ascending, each judged on
    its build's own active set (None).  An example with an ``r0`` row excises
    the poles: its residuals are limited by the cap truncation, not the grid,
    so it sweeps the distinct radii of ``r0`` at its one grid size instead
    (more than one distinct size is an ExampleError, raised before any build).
    That sweep is one point, built at the smallest radius (whose active set
    contains every other radius's) and judged on each radius's mask, labelled
    by the radius, largest first.  The radii are checked against the grid
    smallest first, so the ExampleError of a grid too coarse for the sweep
    names the radius that binds.
    """
    sizes = sorted({int(n) for n in resolutions})
    p = resolve_params(spec.name, {**spec.params, "n": sizes[-1]})
    if "r0" not in p:
        return [(ExampleSpec(spec.name, {**spec.params, "n": n}), None) for n in sizes]
    if len(sizes) > 1:
        raise ExampleError(f"{spec.name}: an excised run sweeps r0 at one grid size; "
                           f"got sizes {', '.join(map(str, sizes))}")
    radii = sorted(set(p["r0"]))
    try:
        grid = _sphere_grid(p["n"])
        masks = [(r0, _excision_mask(grid, r0)) for r0 in radii]
    except ValueError as exc:
        raise ExampleError(f"{spec.name}: {exc}") from exc
    return [(ExampleSpec(spec.name, {**spec.params, "n": p["n"], "r0": radii[0]}), masks[::-1])]


def build_example(spec: ExampleSpec) -> FoliatedRandersManifold:
    """Construct a catalog manifold; raises ExampleError for parameters that
    fail their rows (see ``resolve_params``) or the builder's own checks."""
    p = resolve_params(spec.name, spec.params)
    try:
        return EXAMPLES[spec.name].build(p)
    except ValueError as exc:
        raise ExampleError(f"{spec.name}: {exc}") from exc
