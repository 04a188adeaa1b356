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
from .invariants import det, dot, inv, is_spd, matvec, outer, quad, trace

__all__ = [
    "FoliatedRandersManifold",
    "gradient",
    "levi_civita",
    "connection_along",
    "covariant_vector_derivative",
    "covariant_operator_derivative",
    "deformation_tensor",
    "extrinsic_bar",
    "curvature_bar",
    "integrate",
]

VOLUMES = ("a", "g", "F")


@dataclass(frozen=True)
class FoliatedRandersManifold:
    """Grid + metric field a + 1-form field beta + unit normal field N."""

    grid: PeriodicGrid
    a: np.ndarray          # (*sizes, d, d) SPD
    beta: np.ndarray       # (*sizes, d)
    N: np.ndarray          # (*sizes, d), a-unit
    mask: np.ndarray | None = None   # True on active nodes; None = everywhere
    name: str = "custom"
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
        if not np.all(is_spd(a[act])):
            raise ValueError("metric field not positive definite on active nodes")
        a, beta, N = a.copy(), beta.copy(), N.copy()
        for arr in (a, beta, N):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "mask", mask)
        # validate |N|_a = 1 and |beta|_a < 1 on active nodes
        nrm = quad(N, a, N)[act]
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
        return inv(_masked_to_identity(self.a, self))

    @cached_property
    def sqrt_det_a(self) -> np.ndarray:
        return np.sqrt(np.clip(det(self.a), 0.0, None))

    @cached_property
    def beta_sharp(self) -> np.ndarray:
        if self.beta_sharp_given is not None:
            return np.asarray(self.beta_sharp_given, float)
        return matvec(self.a_inv, self.beta)

    @cached_property
    def beta_norm(self) -> np.ndarray:
        return np.sqrt(dot(self.beta, self.beta_sharp))

    @cached_property
    def beta_N(self) -> np.ndarray:
        return dot(self.beta, self.N)

    @cached_property
    def beta_sharp_top(self) -> np.ndarray:
        return self.beta_sharp - self.beta_N[..., None] * self.N

    @cached_property
    def c(self) -> np.ndarray:
        top2 = quad(self.beta_sharp_top, self.a, self.beta_sharp_top)
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
        return matvec(self.a, self.N)

    @cached_property
    def tangent_projector(self) -> np.ndarray:
        """a-orthogonal projector onto the leaf tangent spaces."""
        d = self.dim
        return np.broadcast_to(np.eye(d), self.grid.sizes + (d, d)) - outer(self.N, self.N_flat)

    def project_tangent(self, v: np.ndarray) -> np.ndarray:
        return v - dot(self.N_flat, v)[..., None] * self.N

    def inner(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return quad(u, self.a, v)

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
    field (the normal-metric g, for instance); a ``metric`` that is not SPD
    raises FloatingPointError naming the first such active node in C order.
    Each partial d_p g is added into X[l, j, k] = d_j g_kl + d_k g_jl - d_l g_jk
    as it is taken, so no stack of partials is formed.
    """
    g = M.a if metric is None else metric
    if metric is None:
        g_inv = M.a_inv
    else:
        g_act = _masked_to_identity(g, M)
        D = det(g_act)
        bad = np.flatnonzero(~is_spd(g_act, D))
        if bad.size:
            node = tuple(int(i) for i in np.unravel_index(int(bad[0]), M.grid.sizes))
            raise FloatingPointError(f"metric field not SPD at node {node}")
        g_inv = inv(g_act, D)
    d = M.dim
    X = np.zeros(M.grid.sizes + (d, d, d))  # X[..., l, j, k]
    for p in range(d):
        dg = derivative_values(g, M.grid, p, scheme)  # dg[..., i, j] = d_p g_ij
        dgT = np.swapaxes(dg, -1, -2)
        X[..., :, p, :] += dgT  # j = p: d_p g_kl
        X[..., :, :, p] += dgT  # k = p: d_p g_jl
        X[..., p, :, :] -= dg   # l = p: d_p g_jk
    gam = g_inv @ X.reshape(M.grid.sizes + (d, d * d))
    gam *= 0.5
    return gam.reshape(X.shape)


def _masked_to_identity(g: np.ndarray, M: FoliatedRandersManifold) -> np.ndarray:
    """Replace masked-node matrices by the identity so inversion is defined."""
    if M.mask is None:
        return g
    out = g.copy()
    out[~M.active] = np.eye(g.shape[-1])
    return out


def connection_along(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connection matrix along v: out[..., i, k] = Gamma^i_{km} v^m = Gamma^i_{mk} v^m.

    One ``matvec`` of the (d^2, d) matrix Gamma^{ik}_m with v per node; the two
    index orders agree because Levi-Civita symbols are symmetric in their lower indices.
    """
    d = v.shape[-1]
    return matvec(gamma.reshape(gamma.shape[:-3] + (d * d, d)), v).reshape(gamma.shape[:-1])


def covariant_vector_derivative(
    M: FoliatedRandersManifold, v: np.ndarray, gamma: np.ndarray, scheme: str
) -> np.ndarray:
    """(nabla v)[..., i, k] = d_k v^i + Gamma^i_{km} v^m, each d_k v added in as taken."""
    out = connection_along(gamma, v)
    for k in range(M.dim):
        out[..., :, k] += derivative_values(v, M.grid, k, scheme)
    return out


def covariant_operator_derivative(
    M: FoliatedRandersManifold, T: np.ndarray, direction: np.ndarray, gamma_X: np.ndarray, scheme: str
) -> np.ndarray:
    """Covariant derivative of a (1,1)-tensor field along a vector field X.

    (nabla_X T)^i_j = X^k d_k T^i_j + X^k Gamma^i_{km} T^m_j - X^k Gamma^m_{kj} T^i_m,
    assembled as X.dT + G T - T G from the connection matrix along X,
    ``gamma_X`` = G = connection_along(Gamma, X); each d_k T is added in as taken.
    """
    term = derivative_values(T, M.grid, 0, scheme)
    term *= direction[..., 0, None, None]
    for k in range(1, M.dim):
        dT = derivative_values(T, M.grid, k, scheme)
        dT *= direction[..., k, None, None]
        term += dT
        del dT
    term += gamma_X @ T
    term -= T @ gamma_X
    return term


def deformation_tensor(M: FoliatedRandersManifold, nab: np.ndarray) -> np.ndarray:
    """(1,1) deformation tensor of u, given nab = nabla u: half its a-symmetrisation.

    Def^i_j = (nab^i_j + a^{ik} nab^l_k a_{lj}) / 2 = (nab + a^-1 nab^T a) / 2.
    """
    nab_t = M.a_inv @ (np.swapaxes(nab, -1, -2) @ M.a)
    nab_t += nab
    nab_t *= 0.5
    return nab_t


def extrinsic_bar(M: FoliatedRandersManifold, gamma: np.ndarray, scheme: str) -> tuple:
    """``(Abar, Zbar)``: the shape operator Abar(u) = -(nabla_u N)^T and the curvature vector."""
    nabN = covariant_vector_derivative(M, M.N, gamma, scheme)
    Zbar = M.project_tangent(matvec(nabN, M.N))
    P = M.tangent_projector
    Abar = -(P @ nabN @ P)
    return Abar, Zbar


def curvature_bar(M: FoliatedRandersManifold, gamma: np.ndarray, scheme: str) -> tuple:
    """``(R_N, ricci_N, sup_riemann)``: R_N(u) = R(u, N) N on the leaves, its trace, and sup |R|.

    R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{km} Gamma^m_{lj}
    - Gamma^i_{lm} Gamma^m_{kj} is formed one slice R_kl = R[:, :, k, l], k < l,
    at a time: with (Gamma_k)^i_m = Gamma^i_{km}, each one (d, d) field,
    R_kl = (Gamma_k Gamma_l + d_k Gamma_l) - (Gamma_l Gamma_k + d_l Gamma_k).
    R_lk = -R_kl and R_kk = 0, so the slices give sup |R| exactly, and
    R_N^i_k = R^i_{jkl} N^j N^l collects R_kl N from both of its slots.
    """
    d = M.dim
    N = M.N
    RN = np.zeros(M.grid.sizes + (d, d))
    sup = 0.0
    for k in range(d):
        for l in range(k + 1, d):
            gk, gl = gamma[..., :, k, :], gamma[..., :, l, :]
            R = gk @ gl
            R += derivative_values(gl, M.grid, k, scheme)
            T = gl @ gk
            T += derivative_values(gk, M.grid, l, scheme)
            R -= T
            del T
            sup = max(sup, R.max(), -R.min())
            RNv = matvec(R, N)  # R^i_{jkl} N^j
            RN[..., :, k] += RNv * N[..., l, None]
            RN[..., :, l] -= RNv * N[..., k, None]
    P = M.tangent_projector
    RN_tan = P @ RN @ P
    ric = trace(RN_tan)
    return RN_tan, ric, float(sup)


def integrate(
    M: FoliatedRandersManifold, f: np.ndarray, volume: str = "a", active: np.ndarray | None = None
) -> float:
    """Quadrature of a scalar field against dV_a, dV_g or dV_F over ``active`` (default ``M.active``)."""
    active = M.active if active is None else active
    return trapezoid_integral(M.grid, np.asarray(f, float), M.volume_density(volume), active)
