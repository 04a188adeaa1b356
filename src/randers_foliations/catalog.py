"""Catalog of concrete foliated Randers manifolds.

Every example lives on a single periodic chart.  The foliations are exact by
construction (level sets of explicit functions), so integrability never has
to be checked numerically.

==================  ====  =========================================================
name                dim   geometry
==================  ====  =========================================================
flat-parallel        3    flat torus, parallel hyperplane leaves, constant beta
                          (Berwald, Abar = Zbar = 0, totally geodesic)
flat-graph           2    flat torus, leaves y = phi(x) + const, constant beta
                          (Berwald, flat, Abar != 0, beta(N) varies)
flat-graph-tangent   3    flat torus, leaves z = phi(x) + const, constant beta
                          tangent to the leaves (Berwald, beta(N) = 0, the
                          second coordinate direction is flat along each leaf)
conformal-torus      2    a = e^{2 phi} delta, coordinate leaves, smooth beta
                          (non-Berwald; beta_mode selects generic / constant
                          angle / vanishing beta)
sphere-latitudes     2    round 2-sphere in the (theta, phi) chart, latitude
                          leaves, poles excised at radius r0 (singular case);
                          beta_mode rotational (leaf-tangent, asymmetric
                          profile) or eigen (beta_sharp = eps' X + eps N with
                          X the principal direction field)
==================  ====  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid
from .manifold import FoliatedRandersManifold

__all__ = [
    "ExampleError",
    "ExampleSpec",
    "build_example",
    "example_names",
    "example_info",
    "default_resolutions",
]


class ExampleError(ValueError):
    """An example cannot be built from the given name or parameters."""


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    params: dict = field(default_factory=dict)

    def with_resolution(self, n: int) -> "ExampleSpec":
        params = dict(self.params)
        params["n"] = int(n)
        return ExampleSpec(self.name, params)


def _flat_parallel(params: dict) -> FoliatedRandersManifold:
    n = int(params.get("n", 16))
    L = float(params.get("period", 1.0))
    bs = np.asarray(params.get("beta_sharp", (0.3, 0.0, 0.4)), float)
    grid = PeriodicGrid((n, n, n), (L, L, L))
    d = 3
    if bs.shape != (d,):
        raise ValueError("flat-parallel expects a 3-component beta_sharp")
    if np.linalg.norm(bs) >= 1.0:
        raise ValueError("|beta| must be < 1")
    shape = grid.sizes
    a = np.broadcast_to(np.eye(d), shape + (d, d)).copy()
    N = np.zeros(shape + (d,))
    N[..., d - 1] = 1.0
    beta = np.broadcast_to(bs, shape + (d,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-parallel")


def _graph_profile(x: np.ndarray, L: float, amp: float) -> tuple[np.ndarray, np.ndarray]:
    w = 2.0 * np.pi / L
    phi = amp * (np.sin(w * x) + 0.5 * np.cos(2.0 * w * x))
    dphi = amp * w * (np.cos(w * x) - np.sin(2.0 * w * x))
    return phi, dphi


def _flat_graph(params: dict) -> FoliatedRandersManifold:
    n = int(params.get("n", 64))
    L = float(params.get("period", 1.0))
    amp = float(params.get("amplitude", 0.05))
    bs = np.asarray(params.get("beta_sharp", (0.3, 0.15)), float)
    grid = PeriodicGrid((n, n), (L, L))
    x, _y = grid.meshgrid()
    _, dphi = _graph_profile(x, L, amp)
    W = np.sqrt(1.0 + dphi**2)
    shape = grid.sizes
    a = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    N = np.stack([-dphi / W, 1.0 / W], axis=-1)
    if np.linalg.norm(bs) >= 1.0:
        raise ValueError("|beta| must be < 1")
    # beta_sharp must stay nowhere parallel to N
    cosang = np.abs(N @ bs) / np.linalg.norm(bs)
    if cosang.max() >= 1.0 - 1e-6:
        raise ValueError("beta_sharp is parallel to N somewhere; leaves would be orthogonal")
    beta = np.broadcast_to(bs, shape + (2,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-graph")


def _flat_graph_tangent(params: dict) -> FoliatedRandersManifold:
    n = int(params.get("n", 32))
    L = float(params.get("period", 1.0))
    amp = float(params.get("amplitude", 0.04))
    b = float(params.get("b", 0.4))
    grid = PeriodicGrid((n, n, n), (L, L, L))
    x = grid.meshgrid()[0]
    _, dphi = _graph_profile(x, L, amp)
    W = np.sqrt(1.0 + dphi**2)
    shape = grid.sizes
    a = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    N = np.stack([-dphi / W, np.zeros_like(W), 1.0 / W], axis=-1)
    if not 0 < abs(b) < 1:
        raise ValueError("tangent component b must satisfy 0 < |b| < 1")
    beta = np.broadcast_to(np.array([0.0, b, 0.0]), shape + (3,)).copy()
    return FoliatedRandersManifold(grid, a, beta, N, name="flat-graph-tangent")


def _conformal_torus(params: dict) -> FoliatedRandersManifold:
    n = int(params.get("n", 64))
    L = float(params.get("period", 1.0))
    amp = float(params.get("phi_amplitude", 0.15))
    mode = params.get("beta_mode", "generic")
    grid = PeriodicGrid((n, n), (L, L))
    x, y = grid.meshgrid()
    w = 2.0 * np.pi / L
    phi = amp * (np.sin(w * x) * np.cos(w * y) + 0.4 * np.cos(w * x) + 0.3 * np.sin(w * y))
    e2p = np.exp(2.0 * phi)
    shape = grid.sizes
    a = np.zeros(shape + (2, 2))
    a[..., 0, 0] = e2p
    a[..., 1, 1] = e2p
    emp = np.exp(-phi)
    N = np.stack([np.zeros(shape), emp], axis=-1)
    if mode == "riemannian":
        bsharp = np.zeros(shape + (2,))
    elif mode == "generic":
        e1 = float(params.get("eps1", 0.35))
        e2 = float(params.get("eps2", 0.25))
        u = np.sin(w * x + 0.7) * np.cos(w * y)
        v = np.cos(w * x) * np.sin(w * y + 0.3)
        bsharp = np.stack([e1 * u * emp, e2 * v * emp], axis=-1)
    elif mode == "constant-angle":
        e1 = float(params.get("eps1", 0.4))
        e2 = float(params.get("eps2", 0.25))
        bsharp = np.stack([e1 * emp, e2 * emp], axis=-1)
    else:
        raise ValueError(f"unknown beta_mode {mode!r}")
    beta = np.einsum("...ij,...j->...i", a, bsharp)
    return FoliatedRandersManifold(
        grid, a, beta, N, name=f"conformal-torus[{mode}]", beta_sharp_given=bsharp
    )


def _sphere_latitudes(params: dict) -> FoliatedRandersManifold:
    n = int(params.get("n", 256))
    r0 = float(params.get("r0", 0.1))
    mode = params.get("beta_mode", "rotational")
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
        eps = float(params.get("eps", 0.25))
        asym = float(params.get("asym", 0.6))
        profile = eps * (1.0 + asym * c2)
        if np.max(np.abs(profile) * s) >= 1.0:
            raise ValueError("rotational beta profile exceeds the norm bound")
        bsharp = np.zeros(shape + (2,))
        bsharp[..., 1] = profile
        beta = np.zeros(shape + (2,))
        beta[..., 1] = profile * s**2
    elif mode == "eigen":
        # beta_sharp = eps' X + eps N with X the unit latitude direction field;
        # X does not extend over the poles, so beta is singular on the excised set
        epsp = float(params.get("eps_prime", 0.3))
        eps = float(params.get("eps", 0.25))
        if epsp**2 + eps**2 >= 1.0:
            raise ValueError("eigen-mode coefficients exceed the norm bound")
        s_safe = np.where(np.abs(s) > 1e-12, s, 1.0)
        bsharp = np.zeros(shape + (2,))
        bsharp[..., 0] = eps
        bsharp[..., 1] = epsp / s_safe
        beta = np.zeros(shape + (2,))
        beta[..., 0] = eps
        beta[..., 1] = epsp * s
    else:
        raise ValueError(f"unknown beta_mode {mode!r}")
    return FoliatedRandersManifold(
        grid,
        a,
        beta,
        N,
        mask=mask,
        name=f"sphere-latitudes[{mode}]",
        excision_radius=r0,
        beta_sharp_given=bsharp,
        beta_singular=(mode == "eigen"),
    )


_BUILDERS = {
    "flat-parallel": _flat_parallel,
    "flat-graph": _flat_graph,
    "flat-graph-tangent": _flat_graph_tangent,
    "conformal-torus": _conformal_torus,
    "sphere-latitudes": _sphere_latitudes,
}

_INFO = {
    "flat-parallel": (
        "flat T^3, parallel leaves, constant tilted beta; Berwald, flat, "
        "Abar = Zbar = 0; exercises every formula trivially and the "
        "totally-geodesic and equality cases of the bounds"
    ),
    "flat-graph": (
        "flat T^2, graph leaves, constant beta, beta(N) varying; Berwald, "
        "flat curvature: exercises the shape-operator comparison, the "
        "parallel-field second-order formula, the Berwald sigma_k series "
        "and the flat total-curvature values"
    ),
    "flat-graph-tangent": (
        "flat T^3, graph leaves along x, constant beta tangent to leaves; "
        "Berwald, beta(N) = 0 constant: adds the constant-angle variants "
        "and the parallel-tangent vanishing conclusions"
    ),
    "conformal-torus": (
        "conformally flat T^2, coordinate leaves, smooth non-parallel beta; "
        "exercises the general first-order balance, the weighted mean "
        "curvature formula and (beta_mode=riemannian) the curvature-route "
        "second-order identity"
    ),
    "sphere-latitudes": (
        "round S^2, latitude leaves, poles excised at radius r0: the "
        "singular-foliation regime; beta_mode=eigen runs the principal "
        "direction construction with constant c and beta(N)"
    ),
}

_DEFAULT_RES = {
    "flat-parallel": (12, 16),
    "flat-graph": (48, 64),
    "flat-graph-tangent": (24, 32),
    "conformal-torus": (48, 64),
    # excised runs sweep the excision radius at the finest grid, so a single
    # resolution is the meaningful default here
    "sphere-latitudes": (256,),
}

_PARAMS = {
    "flat-parallel": "n=16, period=1.0, beta_sharp=(0.3,0,0.4)",
    "flat-graph": "n=64, period=1.0, amplitude=0.05, beta_sharp=(0.3,0.15)",
    "flat-graph-tangent": "n=32, period=1.0, amplitude=0.04, b=0.4",
    "conformal-torus": (
        "n=64, period=1.0, phi_amplitude=0.15, "
        "beta_mode=generic|constant-angle|riemannian, eps1, eps2"
    ),
    "sphere-latitudes": (
        "n=256, r0=0.1, r0_sweep=0.2,0.1,0.05, "
        "beta_mode=rotational|eigen, eps, asym, eps_prime"
    ),
}


def example_names() -> list[str]:
    return sorted(_BUILDERS)


def example_info(name: str) -> str:
    return _INFO[name]


def example_params(name: str) -> str:
    """Parameter schema of one example (names and defaults)."""
    return _PARAMS[name]


def default_resolutions(name: str) -> tuple[int, ...]:
    return _DEFAULT_RES[name]


def build_example(spec: ExampleSpec) -> FoliatedRandersManifold:
    """Construct a catalog manifold; raises ExampleError on unknown names/params."""
    try:
        builder = _BUILDERS[spec.name]
    except KeyError:
        raise ExampleError(
            f"unknown example {spec.name!r}; available: {', '.join(example_names())}"
        ) from None
    try:
        return builder(dict(spec.params))
    except ValueError as exc:
        raise ExampleError(f"{spec.name}: {exc}") from exc
