"""Discrete foliated Randers manifolds on periodic charts.

A :class:`FoliatedRandersManifold` holds the metric field ``a``, the 1-form
field ``beta``, and the a-unit normal field ``N`` of a codimension-one
foliation, all sampled on a :class:`~randers_foliations.grid.PeriodicGrid`.
Optionally a boolean mask excises neighbourhoods of singular points; masked
nodes never enter quadrature and all pointwise algebra stays well defined on
the active set because the chart fields themselves remain smooth.

Sign conventions, used consistently everywhere:

* shape operator  Abar(u) = -(nabla_u N)^T  on leaf-tangent u,
* curvature       R(X,Y)Z = [nabla_X, nabla_Y] Z - nabla_[X,Y] Z,
  applied as R_N(u) = R(u, N) N, so R_N = K Id on a sphere of curvature K,
* Zbar = nabla_N N, the curvature vector of the normal curves.

With these choices sigma_1(Abar) = -div N and the total mean curvature of a
closed foliated manifold vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import PeriodicGrid, derivative_values, trapezoid_integral

__all__ = [
    "FoliatedRandersManifold",
    "gradient",
    "levi_civita",
    "covariant_vector_derivative",
    "covariant_operator_derivative",
    "deformation_tensor",
    "extrinsic_bar",
    "curvature_bar",
    "integrate",
]

VOLUMES = ("a", "g", "F")


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@dataclass(frozen=True)
class FoliatedRandersManifold:
    """Grid + metric field a + 1-form field beta + unit normal field N."""

    grid: PeriodicGrid
    a: np.ndarray          # (*sizes, d, d) SPD
    beta: np.ndarray       # (*sizes, d)
    N: np.ndarray          # (*sizes, d), a-unit
    mask: np.ndarray | None = None   # True on active nodes; None = everywhere
    name: str = "custom"
    excision_radius: float = 0.0
    # optional analytic dual field; required for charts where the metric
    # degenerates on the excised set (a^-1 beta would be indeterminate there)
    beta_sharp_given: np.ndarray | None = None
    # True when beta itself is singular on the excised set, so pointwise
    # derivative-route fields are not resolvable near the excision boundary
    beta_singular: bool = False

    def __post_init__(self):
        d = self.grid.dim
        a = np.asarray(self.a, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if a.shape != self.grid.sizes + (d, d):
            raise ValueError(f"metric field shape {a.shape} does not match grid")
        if beta.shape != self.grid.sizes + (d,):
            raise ValueError("beta field shape does not match grid")
        if N.shape != self.grid.sizes + (d,):
            raise ValueError("normal field shape does not match grid")
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool).copy()
            if mask.shape != self.grid.sizes:
                raise ValueError("mask shape does not match grid")
        act = mask if mask is not None else np.ones(self.grid.sizes, bool)
        if not np.all(np.isfinite(a[act])) or not np.all(np.isfinite(beta[act])):
            raise ValueError("non-finite field values on active nodes")
        sym_err = np.max(np.abs(a - np.swapaxes(a, -1, -2)))
        if sym_err > 1e-12:
            raise ValueError(f"metric field not symmetric (max asymmetry {sym_err:.2e})")
        evals = np.linalg.eigvalsh(a[act])
        if evals.min() <= 0:
            raise ValueError("metric field not positive definite on active nodes")
        a, beta, N = a.copy(), beta.copy(), N.copy()
        for arr in (a, beta, N):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "mask", mask)
        # validate |N|_a = 1 and |beta|_a < 1 on active nodes
        nrm = np.einsum("...i,...ij,...j->...", N, a, N)[act]
        if np.max(np.abs(nrm - 1.0)) > 1e-9:
            raise ValueError("normal field is not a-unit on active nodes")
        if np.max(self.beta_norm[act]) >= 1.0 - 1e-9:
            raise ValueError("|beta|_a must stay strictly below 1 on active nodes")

    # -- pointwise algebra ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def m(self) -> int:
        """Leaf dimension."""
        return self.dim - 1

    @cached_property
    def active(self) -> np.ndarray:
        return self.mask if self.mask is not None else np.ones(self.grid.sizes, bool)

    @cached_property
    def a_inv(self) -> np.ndarray:
        """Pointwise inverse metric; masked nodes fall back to the identity."""
        return np.linalg.inv(_masked_to_identity(self.a, self))

    @cached_property
    def sqrt_det_a(self) -> np.ndarray:
        return np.sqrt(np.clip(np.linalg.det(self.a), 0.0, None))

    @cached_property
    def beta_sharp(self) -> np.ndarray:
        if self.beta_sharp_given is not None:
            return np.asarray(self.beta_sharp_given, float)
        return np.einsum("...ij,...j->...i", self.a_inv, self.beta)

    @cached_property
    def beta_norm(self) -> np.ndarray:
        return np.sqrt(np.einsum("...i,...i->...", self.beta, self.beta_sharp))

    @cached_property
    def beta_N(self) -> np.ndarray:
        return np.einsum("...i,...i->...", self.beta, self.N)

    @cached_property
    def beta_sharp_top(self) -> np.ndarray:
        return self.beta_sharp - self.beta_N[..., None] * self.N

    @cached_property
    def c(self) -> np.ndarray:
        top2 = np.einsum(
            "...i,...ij,...j->...", self.beta_sharp_top, self.a, self.beta_sharp_top
        )
        return np.sqrt(np.clip(1.0 - top2, 0.0, None))

    @cached_property
    def chat(self) -> np.ndarray:
        return self.c + self.beta_N

    @cached_property
    def n_field(self) -> np.ndarray:
        """F-normal with unit a-norm: n = chat N - beta_sharp."""
        return self.chat[..., None] * self.N - self.beta_sharp

    @cached_property
    def nu_field(self) -> np.ndarray:
        """F-unit normal nu = n / (c chat).

        The factor c chat = F(n) is positive wherever the Randers data is
        admissible; the guard only protects genuinely degenerate masked nodes.
        """
        cc = self.c * self.chat
        cc = np.where(cc > 1e-12, cc, 1.0)
        return self.n_field / cc[..., None]

    @cached_property
    def N_flat(self) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.a, self.N)

    @cached_property
    def tangent_projector(self) -> np.ndarray:
        """a-orthogonal projector onto the leaf tangent spaces."""
        d = self.dim
        return np.broadcast_to(np.eye(d), self.grid.sizes + (d, d)) - np.einsum(
            "...i,...j->...ij", self.N, self.N_flat
        )

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return v - np.einsum("...i,...i->...", self.N_flat, v)[..., None] * self.N

    def inner(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("...i,...ij,...j->...", u, self.a, v)

    def volume_density(self, volume: str) -> np.ndarray:
        """Pointwise quadrature weight of dV_a, dV_g or dV_F."""
        if volume == "a":
            return self.sqrt_det_a
        power = (self.dim + 1) / 2.0
        if volume == "F":
            return (1.0 - self.beta_norm**2) ** power * self.sqrt_det_a
        if volume == "g":
            return (self.c * self.chat) ** power * self.sqrt_det_a
        raise ValueError(f"unknown volume {volume!r}; expected one of {VOLUMES}")


# -- connection-level operators ----------------------------------------------


def gradient(M: FoliatedRandersManifold, field: np.ndarray, scheme: str) -> np.ndarray:
    """All partial derivatives of a field, stacked on a new axis after the grid axes.

    For input shape (*sizes, *comp) the result has shape (*sizes, dim, *comp).
    """
    parts = [derivative_values(field, M.grid, ax, scheme) for ax in range(M.dim)]
    return np.stack(parts, axis=M.dim)


def levi_civita(
    M: FoliatedRandersManifold, scheme: str, metric: np.ndarray | None = None
) -> np.ndarray:
    """Christoffel symbols Gamma[..., i, j, k] = Gamma^i_{jk} of a metric field.

    Defaults to the base metric ``a``; pass ``metric`` for any other SPD
    field (the normal-metric g, for instance).
    """
    g = M.a if metric is None else metric
    if metric is not None:
        lowest = np.linalg.eigvalsh(g).min(axis=-1)
        lowest = np.where(M.active, lowest, np.inf)
        if lowest.min() <= 0:
            bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(lowest)), M.grid.sizes))
            raise FloatingPointError(f"metric field not SPD at node {bad}")
    g_inv = M.a_inv if metric is None else np.linalg.inv(_masked_to_identity(g, M))
    dg = gradient(M, g, scheme)  # dg[..., k, i, j] = d_k g_ij
    X = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...il,...jkl->...ijk", g_inv, X)


def _masked_to_identity(g: np.ndarray, M: FoliatedRandersManifold) -> np.ndarray:
    """Replace masked-node matrices by the identity so inversion is defined."""
    if M.mask is None:
        return g
    out = g.copy()
    out[~M.active] = np.eye(g.shape[-1])
    return out


def covariant_vector_derivative(
    M: FoliatedRandersManifold, v: np.ndarray, gamma: np.ndarray, scheme: str
) -> np.ndarray:
    """(nabla v)[..., i, k] = d_k v^i + Gamma^i_{km} v^m."""
    dv = gradient(M, v, scheme)  # dv[..., k, i]
    return np.swapaxes(dv, -1, -2) + np.einsum("...ikm,...m->...ik", gamma, v)


def covariant_operator_derivative(
    M: FoliatedRandersManifold, T: np.ndarray, direction: np.ndarray, gamma: np.ndarray, scheme: str
) -> np.ndarray:
    """Covariant derivative of a (1,1)-tensor field along a vector field."""
    dT = gradient(M, T, scheme)  # dT[..., k, i, j]
    term = np.einsum("...k,...kij->...ij", direction, dT)
    term += np.einsum("...k,...ikm,...mj->...ij", direction, gamma, T)
    term -= np.einsum("...k,...mkj,...im->...ij", direction, gamma, T)
    return term


def deformation_tensor(
    M: FoliatedRandersManifold, u: np.ndarray, gamma: np.ndarray, scheme: str
) -> np.ndarray:
    """(1,1) deformation tensor: half the a-symmetrised covariant derivative."""
    nab = covariant_vector_derivative(M, u, gamma, scheme)
    nab_t = np.einsum("...ik,...lk,...lj->...ij", M.a_inv, nab, M.a)
    return 0.5 * (nab + nab_t)


@dataclass(frozen=True)
class BarData:
    """Extrinsic quantities of the base metric: Abar, Zbar and helpers."""

    Abar: np.ndarray        # (.., d, d) operator, kills N, maps into T(leaves)
    Zbar: np.ndarray        # (.., d) tangent vector field
    nabla_N: np.ndarray     # (.., d, d) full covariant derivative of N


def extrinsic_bar(M: FoliatedRandersManifold, gamma: np.ndarray, scheme: str) -> BarData:
    """Shape operator Abar(u) = -(nabla_u N)^T and curvature vector Zbar."""
    nabN = covariant_vector_derivative(M, M.N, gamma, scheme)
    Zbar = M.project_tangent(np.einsum("...ik,...k->...i", nabN, M.N))
    P = M.tangent_projector
    Abar = -np.einsum("...il,...lm,...mj->...ij", P, nabN, P)
    return BarData(Abar=Abar, Zbar=Zbar, nabla_N=nabN)


@dataclass(frozen=True)
class CurvatureData:
    riemann: np.ndarray     # R[..., i, j, k, l] with (R(e_k, e_l) e_j)^i
    R_N: np.ndarray         # operator R_N(u) = R(u, N) N on the tangent bundle
    ricci_N: np.ndarray     # scalar field, trace of R_N over the leaf tangent


def curvature_bar(M: FoliatedRandersManifold, gamma: np.ndarray, scheme: str) -> CurvatureData:
    """Riemann tensor of the base metric and its normal-direction operator."""
    dgam = gradient(M, gamma, scheme)  # dgam[..., p, i, j, k]
    R = (
        np.einsum("...kilj->...ijkl", dgam)
        - np.einsum("...likj->...ijkl", dgam)
        + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
        - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma)
    )
    RN = np.einsum("...ijkl,...j,...l->...ik", R, M.N, M.N)
    P = M.tangent_projector
    RN_tan = np.einsum("...il,...lm,...mj->...ij", P, RN, P)
    ric = np.einsum("...ii->...", RN_tan)
    return CurvatureData(riemann=R, R_N=RN_tan, ricci_N=ric)


def integrate(M: FoliatedRandersManifold, f: np.ndarray, volume: str = "a") -> float:
    """Quadrature of a scalar field against dV_a, dV_g or dV_F."""
    return trapezoid_integral(M.grid, np.asarray(f, float), M.volume_density(volume), M.active)
