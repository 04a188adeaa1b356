"""Integral-formula and comparison-formula verification engine.

Every check is a :class:`Formula`: a hypothesis gate (predicates evaluated
numerically on the example at hand) plus an evaluator returning a measured
value and its expected value.  The runner sweeps a list of resolutions,
records the convergence table, and issues the verdict at the finest grid.
Hypothesis gates never pass silently: each report carries the measured
hypothesis residuals, and an example that violates a formula's hypotheses
yields the first-class verdict ``not-applicable``.

Formulas whose published closed form disagrees with the definitional route
are shipped twice: the corrected version under the plain id, and the verbatim
transcription under the ``-printed`` suffix, so the convergence tables
document which one the numerics support.  See the package README for the
catalog of checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import ExampleSpec, build_example
from .extrinsic import ExtrinsicBundle, build_extrinsic
from .invariants import newton_transform_batched, sigma_k, sigma_multi_batched, trace
from .manifold import (
    covariant_operator_derivative,
    covariant_vector_derivative,
    deformation_tensor,
    gradient,
    integrate,
)
from .report import ResidualReport

__all__ = ["Formula", "formula_ids", "run_formulas", "hypothesis_profile", "FORMULAS"]

SUP_FLOOR = 1e-11   # residuals at this scale count as converged to zero
BOUND_TOL = 1e-8    # default slack of bound-type checks

# judging policy (tol, ratio, cap): the default absolute tolerance, the
# residual decay per sweep step that certifies convergence, and the residual
# above which a converging check is still "not yet resolved"
SMOOTH_POLICY = (1e-6, 4.0, 1e-2)
# excised (singular) runs converge in the excision radius, not in h; the
# truncation left by the excised caps dominates every integral residual
SINGULAR_POLICY = (1e-2, 2.5, 0.1)
DEFAULT_R0_SWEEP = (0.2, 0.1, 0.05)


# --------------------------------------------------------------------------
# hypothesis measurements
# --------------------------------------------------------------------------


def _sup_active(E: ExtrinsicBundle, field: np.ndarray) -> float:
    act = E.M.active
    extra = field.ndim - act.ndim
    a = act.reshape(act.shape + (1,) * extra)
    return float(np.max(np.abs(np.where(a, field, 0.0))))


def hypothesis_profile(E: ExtrinsicBundle) -> dict[str, float]:
    """Numerically measured hypothesis residuals of one example."""
    M = E.M
    hyp: dict[str, float] = {}
    hyp["sup_nabla_beta"] = _sup_active(E, E.nabla_beta_sharp)
    hyp["sup_beta"] = _sup_active(E, M.beta_norm)
    hyp["min_beta_top"] = float(
        np.min(np.where(M.active, np.sqrt(np.clip(1.0 - E.c**2, 0.0, None)), np.inf))
    )
    cs = np.where(M.active, E.c, np.nan)
    bn = np.where(M.active, E.beta_N, np.nan)
    hyp["var_c"] = float(np.nanmax(cs) - np.nanmin(cs))
    hyp["var_beta_N"] = float(np.nanmax(bn) - np.nanmin(bn))
    hyp["min_abs_beta_N"] = float(np.nanmin(np.abs(bn)))
    hyp["sup_beta_N"] = float(np.nanmax(np.abs(bn)))
    hyp["sup_zbar"] = _sup_active(E, E.Zbar)
    hyp["sup_abar"] = _sup_active(E, E.Abar)
    hyp["masked"] = 0.0 if M.mask is None else 1.0
    hyp["beta_singular"] = 1.0 if M.beta_singular else 0.0
    if M.mask is None:
        hyp["sup_riemann"] = float(np.max(np.abs(E.curvature.riemann)))
        hyp["max_ricci_N"] = float(np.max(E.curvature.ricci_N))
    return hyp


PREDICATES: dict[str, Callable[[dict], bool]] = {
    "berwald": lambda h: h["sup_nabla_beta"] < 1e-8,
    "flat": lambda h: h.get("sup_riemann", np.inf) < 1e-7,
    "unmasked": lambda h: h["masked"] == 0.0,
    "singular": lambda h: h["masked"] == 1.0,
    "nowhere-orthogonal": lambda h: h["min_beta_top"] > 1e-6,
    "constant-c": lambda h: h["var_c"] < 1e-9,
    "constant-beta-N": lambda h: h["var_beta_N"] < 1e-9,
    "beta-N-nonzero": lambda h: h["min_abs_beta_N"] > 1e-6,
    "tangent-beta": lambda h: h["sup_beta_N"] < 1e-9,
    "beta-zero": lambda h: h["sup_beta"] < 1e-14,
    "beta-nonzero": lambda h: h["sup_beta"] > 1e-10,
    "zbar-zero": lambda h: h["sup_zbar"] < 1e-9,
    "totally-geodesic": lambda h: h["sup_abar"] < 1e-9,
    "negative-ricci": lambda h: h.get("max_ricci_N", np.inf) < -1e-9,
    "smooth-beta": lambda h: h["beta_singular"] == 0.0,
}


@dataclass(frozen=True)
class Formula:
    fid: str
    description: str
    evaluate: Callable[[ExtrinsicBundle, dict], tuple[float, float, dict]]
    requires: tuple[str, ...] = ()
    any_of: tuple[str, ...] = ()          # at least one must hold, if nonempty
    kind: str = "zero"                    # zero | sup | bound
    fixed_tol: float | None = None
    min_m: int = 1                        # smallest leaf dimension the check needs
    # verbatim published display that the convergence tables refute; selected
    # only by ``--formulas full`` or by name
    refuted: bool = False

    def applicable(self, hyp: dict, m: int = 99) -> bool:
        if m < self.min_m:
            return False
        if not all(PREDICATES[p](hyp) for p in self.requires):
            return False
        if self.any_of and not any(PREDICATES[p](hyp) for p in self.any_of):
            return False
        return True


# --------------------------------------------------------------------------
# shared field helpers
# --------------------------------------------------------------------------


def _test_function(E) -> tuple[np.ndarray, np.ndarray]:
    """Smooth test function for the weighted mean-curvature formula and N(f)."""
    M = E.M
    x0 = M.grid.meshgrid()[0]
    if M.mask is None:
        f = np.exp(np.cos(2.0 * np.pi * x0 / M.grid.periods[0]))
    else:
        f = np.exp(0.3 * np.sin(2.0 * x0))  # periodic in the excised chart
    return f, _directional(E, f, M.N)


def _directional(E, f, v):
    return np.einsum("...i,...i->...", v, gradient(E.M, f, E.scheme))


def _ric_nu(E):
    """Ric_nu of the Finsler structure: c^-2 Ric_N of the base metric."""
    return E.curvature.ricci_N / E.c**2


def _curvature_spread(E):
    """sum_{i<j} (k_i - k_j)^2 over the principal curvatures."""
    ks = E.principal_curvatures
    spread = np.zeros(E.M.grid.sizes)
    for i in range(E.M.m):
        for j in range(i + 1, E.M.m):
            spread += (ks[..., i] - ks[..., j]) ** 2
    return spread


# --------------------------------------------------------------------------
# evaluators: mean curvature family
# --------------------------------------------------------------------------


def _ev_reeb_riemannian(E, hyp):
    return integrate(E.M, trace(E.Abar_frame), "a"), 0.0, {}


def _ev_reeb_weighted(E, hyp):
    f, Nf = _test_function(E)
    return integrate(E.M, f * trace(E.Abar_frame) - Nf, "a"), 0.0, {}


def _ev_reeb_normal_metric(E, hyp):
    return integrate(E.M, trace(E.op_to_frame(E.Ag_direct)), "g"), 0.0, {}


def _ev_reeb_finsler(E, hyp):
    return integrate(E.M, trace(E.A_frame), "F"), 0.0, {}


# -- second order ------------------------------------------------------------


def _ev_second_order_riemannian(E, hyp):
    integrand = 2.0 * sigma_k(E.Abar_frame, 2) - E.curvature.ricci_N
    return integrate(E.M, integrand, "a"), 0.0, {}


def _ev_second_order_finsler(E, hyp):
    integrand = sigma_k(E.A_frame, 2) - 0.5 * _ric_nu(E)
    return integrate(E.M, integrand, "F"), 0.0, {}


# -- flat total curvatures and the series -------------------------------------


def _ev_sigma_flat(k):
    def ev(E, hyp):
        return integrate(E.M, sigma_k(E.A_frame, k), "F"), 0.0, {}

    return ev


def _ev_curvature_series(k):
    def ev(E, hyp):
        m = E.M.m
        shape = E.A_frame.shape
        # B_1 = A; every higher coefficient matrix carries a power of the
        # normal Riemann operator, which vanishes on the flat Berwald gate
        mats = [E.A_frame] + [np.zeros(shape)] * (k - 1)
        total = np.zeros(shape[:-2])
        for lam in itertools.product(range(k + 1), repeat=k):
            if sum(lam) != k or sum(lam) > m:
                continue
            if any(lam[i] > 0 for i in range(1, k)):
                # B_i = 0 for i >= 2 under the flat gate, so those terms vanish
                continue
            total = total + sigma_multi_batched(mats, lam)
        return integrate(E.M, total, "F"), 0.0, {}

    return ev


# -- Berwald sigma_k expansions ------------------------------------------------


def _ev_berwald_sigma(k, printed=False):
    def ev(E, hyp):
        m = E.M.m
        Ab = E.Abar_frame
        eye = np.eye(m)
        Csh = E.Csharp_formula
        cC = E.c[..., None, None] * Csh
        b = E.b_frame
        if printed:
            U1 = E.vec_to_frame(E.U1_printed)
            U2 = E.vec_to_frame(E.U2_printed)
            a3 = E.a3_printed
        else:
            U1 = E.vec_to_frame(E.U1)
            U2 = E.vec_to_frame(E.U2)
            a3 = E.a3
        A1 = np.einsum("...a,...b->...ab", b, U1)
        A2 = np.einsum("...a,...b->...ab", U2, b)
        X = Ab + E.delta[..., None, None] * eye
        core = X + cC
        # rank-one update chain through Newton transformations
        expansion = sigma_k(X, k)
        for j in range(1, k + 1):
            expansion = expansion + sigma_multi_batched([X, cC], (k - j, j))
        T0 = newton_transform_batched(core, k - 1)
        expansion = expansion + np.einsum("...ab,...b,...a->...", T0, b, U1)
        T1 = newton_transform_batched(core + A1, k - 1)
        expansion = expansion + np.einsum("...a,...ab,...b->...", b, T1, U2)
        T2 = newton_transform_batched(core + A1 + A2, k - 1)
        expansion = expansion + a3 * np.einsum("...a,...ab,...b->...", b, T2, b)
        if printed:
            # published display: sigma_k(Abar + delta I) truncated at first order
            integrand = E.delta * (m - k + 1) * sigma_k(Ab, k - 1) + expansion - sigma_k(X, k)
            return integrate(E.M, integrand, "a"), 0.0, {}
        integrand = expansion / E.c**k - sigma_k(Ab, k)
        return integrate(E.M, integrand, "a"), 0.0, {}

    return ev


def _ev_sigma_tg(k):
    def ev(E, hyp):
        m = E.M.m
        c, ch, cc = E.c, E.chat, E.cc
        eye = np.eye(m)
        Csh = E.Csharp_formula
        b = E.b_frame
        Zp = E.vec_to_frame(E.perp_beta(E.Zbar))
        bZ = E.beta_Zbar
        b2 = np.where(1.0 - c**2 > 1e-12, 1.0 - c**2, 1.0)
        t1 = c**k * sigma_k(Csh, k)
        T0 = newton_transform_batched(Csh + E.delta[..., None, None] * eye, k - 1)
        t2 = (c - 2 * ch) / (2 * cc) * np.einsum("...ab,...b,...a->...", T0, b, Zp)
        # (Zbar^perp)^flat (x) bst: eats <Zbar^perp, .>, outputs bst
        R1 = np.einsum("...a,...b->...ab", b, Zp) * ((c - 2 * ch) / (2 * cc))[..., None, None]
        base = E.c[..., None, None] * Csh + E.delta[..., None, None] * eye
        T1 = newton_transform_batched(base + R1, k - 1)
        t3 = (c * (c - 2 * ch) / (2 * ch)) * np.einsum("...a,...ab,...b->...", b, T1, Zp)
        R2 = np.einsum("...a,...b->...ab", Zp, b) * ((c * (c - 2 * ch)) / (2 * ch))[..., None, None]
        T2 = newton_transform_batched(base + R1 + R2, k - 1)
        t4 = (c - 2 * ch) / (cc * b2) * bZ * np.einsum("...a,...ab,...b->...", b, T2, b)
        return integrate(E.M, t1 + t2 + t3 + t4, "a"), 0.0, {}

    return ev


# -- second-order parallel-field family (printed displays) --------------------


def _csharp_bst(E, Csh):
    """C^sharp_nu(beta_sharp_top) as a coordinate vector field."""
    return E.frame_to_vec(np.einsum("...ab,...b->...a", Csh, E.b_frame))


def _ev_parallel_second_order_printed(E, hyp):
    M = E.M
    c, ch, cc = E.c, E.chat, E.cc
    Csh = E.Csharp_formula
    X = E.Abar_frame + c[..., None, None] * Csh
    bf = E.b_frame
    Xb_b = np.einsum("...a,...ab,...b->...", bf, X, bf)
    Ab_b = E.Abst_beta
    bZ = E.beta_Zbar
    perpZ = E.perp_beta(E.Zbar)
    perpA = E.perp_beta(E.Abar_bst)
    perpC = E.perp_beta(_csharp_bst(E, Csh))
    b2 = np.where(1.0 - c**2 > 1e-12, 1.0 - c**2, 1.0)
    integrand = (1.0 / c**2) * (
        sigma_k(X, 2)
        + ((c - 2 * ch) / cc * Ab_b - (ch - c) / (c**2 * ch) * bZ) * trace(X)
        + (ch - c) / (cc * b2) * Xb_b * Ab_b
        - (c - 2 * ch) ** 2 * (1 - c**2) / (4 * ch**2) * M.inner(perpZ, perpZ)
        + (c - 2 * ch) / (cc * b2) * bZ * Xb_b
        - (1 - (c - 2 * ch) ** 2) / (4 * ch**2) * M.inner(perpA, perpA)
        - (c - 2 * ch) * (1 - c**2 + 2 * cc) / (2 * ch**2) * M.inner(perpA, perpZ)
        - (1 + c**2 - 2 * cc) / (2 * ch) * M.inner(perpA, perpC)
        - (c - 2 * ch) * (1 + c**2) / (2 * ch) * M.inner(perpC, perpZ)
        - 0.5 * E.curvature.ricci_N
    )
    return integrate(M, integrand, "a"), 0.0, {}


def _ev_parallel_const_printed(E, hyp):
    M = E.M
    c, ch, cc = E.c, E.chat, E.cc
    Csh = E.Csharp_formula
    Abf = E.Abar_frame
    Ab = E.Abar_bst
    Cb = _csharp_bst(E, Csh)
    integrand = (
        c * trace(Csh) * trace(Abf)
        - c * trace(Abf @ Csh)
        - (1 - (c - 2 * ch) ** 2) / (4 * ch**2) * M.inner(Ab, Ab)
        - (c - 2 * ch) * (1 - c**2 + 2 * cc) / (2 * ch**2) * M.inner(Ab, E.Zbar)
        - (1 + c**2 - 2 * cc) / (2 * ch) * M.inner(Ab, Cb)
        - (c - 2 * ch) ** 2 * (1 - c**2) / (4 * ch**2) * M.inner(E.Zbar, E.Zbar)
        - (c - 2 * ch) * (1 + c**2) / (2 * ch) * M.inner(Cb, E.Zbar)
    )
    return integrate(M, integrand, "a"), 0.0, {}


def _ev_parallel_tangent_printed(E, hyp):
    M = E.M
    c = E.c
    Csh = E.Csharp_formula
    Abf = E.Abar_frame
    Ab = E.Abar_bst
    Cb = _csharp_bst(E, Csh)
    integrand = (
        c * trace(Csh) * trace(Abf)
        - c * trace(Abf @ Csh)
        - (1 - c**2) / (4 * c**2) * M.inner(Ab, Ab)
        + (1 + c**2) / (2 * c) * M.inner(Ab, E.Zbar)
        - (1 - c**2) / 4.0 * M.inner(E.Zbar, E.Zbar)
        - (1 - c**2) / (2 * c) * M.inner(Ab, Cb)
        + (1 + c**2) / 2.0 * M.inner(Cb, E.Zbar)
    )
    return integrate(M, integrand, "a"), 0.0, {}


# -- first-order tilt family ----------------------------------------------------


def _ev_tilt_balance_printed(E, hyp):
    M = E.M
    Nc = _directional(E, E.c, M.N)
    integrand = (
        E.cc ** (M.m / 2.0)
        / E.c**2
        * (E.chat - E.c)
        * (E.c * Nc + E.c * E.beta_Zbar + E.Abst_beta)
    )
    return integrate(M, integrand, "a"), 0.0, {}


def _ev_tilt_const_printed(E, hyp):
    return integrate(E.M, E.Abst_beta + E.c * E.beta_Zbar, "a"), 0.0, {}


def _ev_eigen_balance(E, hyp):
    # beta_sharp_top is an eigenfield of Abar; check it and integrate the eigenvalue
    M = E.M
    b2 = np.where(M.active, M.inner(E.bst, E.bst), 1.0)
    lam = np.where(M.active, E.Abst_beta / b2, 0.0)
    Ares = E.Abar_bst - lam[..., None] * E.bst
    eig_res = _sup_active(E, Ares)
    return integrate(M, lam, "a"), 0.0, {"eigenfield_residual": eig_res}


# -- comparison (sup-norm) checks ------------------------------------------------


def _ev_shape_comparison(E, hyp):
    d = E.op_to_frame(E.Ag_formula) - E.op_to_frame(E.Ag_direct)
    return _sup_active(E, d), 0.0, {}


def _ev_shape_comparison_printed(E, hyp):
    d = E.op_to_frame(E.Ag_printed) - E.op_to_frame(E.Ag_direct)
    return _sup_active(E, d), 0.0, {}


def _ev_z_comparison(E, hyp):
    d = E.vec_to_frame(E.Z_formula) - E.vec_to_frame(E.Z_direct)
    return _sup_active(E, d), 0.0, {}


def _ev_csharp_comparison(E, hyp):
    return _sup_active(E, E.Csharp_formula - E.Csharp_direct), 0.0, {}


def _ev_csharp_comparison_printed(E, hyp):
    return _sup_active(E, E.Csharp_printed - E.Csharp_direct), 0.0, {}


def _ev_csharp_scale(E, hyp):
    """Settles the torsion scale factor: C#_n = (c chat) C#_nu."""
    target = E.cc[..., None, None] * E.Csharp_direct
    resid = _sup_active(E, E.Csharp_n_direct_numeric - target)
    detail = {}
    act = E.M.active[..., None, None]
    mag = np.where(act, np.abs(E.Csharp_direct), 0.0)
    big = mag > max(1e-8, 0.1 * float(np.max(mag)))
    if np.any(big):
        ratio = E.Csharp_n_direct_numeric[big] / E.Csharp_direct[big]
        detail["median_ratio"] = float(np.median(ratio))
        detail["median_cc"] = float(np.median(np.broadcast_to(E.cc[..., None, None], mag.shape)[big]))
        detail["median_chat3"] = float(
            np.median(np.broadcast_to(E.chat[..., None, None] ** 3, mag.shape)[big])
        )
        detail["median_cc3"] = float(np.median(np.broadcast_to(E.cc[..., None, None] ** 3, mag.shape)[big]))
    return resid, 0.0, detail


def _ev_trace_comparison(E, hyp):
    M = E.M
    div_bs = np.einsum("...ii->...", E.nabla_beta_sharp)
    Nchat = np.einsum("...i,...i->...", M.N, E.d_chat)
    rhs = (
        trace(E.Abar_frame)
        + M.m * E.delta
        + div_bs / E.chat
        - Nchat / E.chat
    )
    lhs = E.c * trace(E.op_to_frame(E.Ag_direct))
    return _sup_active(E, lhs - rhs), 0.0, {}


def _ev_codazzi(E, hyp):
    M = E.M
    nabZ = covariant_vector_derivative(M, E.Zbar, E.gamma_a, E.scheme)
    form = np.einsum("...lu,...lv->...uv", nabZ, M.a)  # <nabla_u Z, v> with u = 2nd slot
    P = M.tangent_projector
    formt = np.einsum("...ua,...uv,...vb->...ab", P, form, P)
    return _sup_active(E, formt - np.swapaxes(formt, -1, -2)), 0.0, {}


def _ev_codazzi_g(E, hyp):
    M = E.M
    nabZ = covariant_vector_derivative(M, E.Z_direct, E.gamma_g, E.scheme)
    form = np.einsum("...lu,...lv->...uv", nabZ, E.g)
    P = M.tangent_projector
    formt = np.einsum("...ua,...uv,...vb->...ab", P, form, P)
    return _sup_active(E, formt - np.swapaxes(formt, -1, -2)), 0.0, {}


def _ev_riccati(E, hyp):
    M = E.M
    gam = E.gamma_a
    P = M.tangent_projector
    defz = deformation_tensor(M, E.Zbar, gam, E.scheme)
    defz_t = np.einsum("...il,...lm,...mj->...ij", P, defz, P)
    dNA = covariant_operator_derivative(M, E.Abar, M.N, gam, E.scheme)
    dNA = np.einsum("...il,...lm,...mj->...ij", P, dNA, P)
    A2 = E.Abar @ E.Abar
    zf = np.einsum("...ij,...j->...i", M.a, E.Zbar)
    zz = np.einsum("...i,...j->...ij", E.Zbar, zf)
    resid = E.curvature.R_N - (defz_t + dNA - A2 - zz)
    return _sup_active(E, resid), 0.0, {}


def _ev_volume_distortion(E, hyp):
    M = E.M
    lhs = M.volume_density("g")
    rhs = np.exp(E.distortion_nu) * M.volume_density("F")
    rel = np.where(M.active, np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), 0.0)
    tau_diff = np.where(M.active, np.abs(E.distortion_det_route - E.distortion_nu), 0.0)
    return float(max(rel.max(), tau_diff.max())), 0.0, {}


def _ev_abar_selfadjoint(E, hyp):
    Af = E.Abar_frame
    return _sup_active(E, Af - np.swapaxes(Af, -1, -2)), 0.0, {}


def _ev_tangency(E, hyp):
    M = E.M
    gz = np.einsum("...i,...ij,...j->...", E.Z_direct, E.g, E.nu)
    az = M.inner(E.Zbar, M.N)
    return float(max(_sup_active(E, gz), _sup_active(E, az))), 0.0, {}


# -- inequalities and vanishing conclusions ---------------------------------------


def _energy_pair(E):
    M = E.M
    m = M.m
    ones = np.ones(M.grid.sizes)
    volF = integrate(M, ones, "F")
    volA = integrate(M, ones, "a")
    Asym = E.A_frame_gsym
    trA2 = np.einsum("...ab,...ba->...", Asym, Asym)
    energy = (m + 1) / 2.0 * volF + 0.5 * integrate(M, trA2, "F")
    bnorm2 = float(np.max(np.where(M.active, M.beta_norm**2, 0.0)))
    ric_term = 0.0
    if M.mask is None:
        ric_term = integrate(M, E.curvature.ricci_N / E.c**2, "a")
    rhs = (1.0 - bnorm2) ** ((m + 2) / 2.0) * ((m + 1) / 2.0 * volA + ric_term / (2.0 * m))
    return energy, rhs, volF


def _ev_energy_bound(E, hyp):
    energy, rhs, volF = _energy_pair(E)
    margin = energy - rhs
    return margin, 0.0, {"energy": energy, "bound": rhs, "vol_F": volF}


def _ev_umbilicity_bound(E, hyp):
    M = E.M
    m = M.m
    U = integrate(M, _curvature_spread(E), "F")
    r = -hyp.get("max_ricci_N", 0.0)
    bnorm2 = float(np.max(np.where(M.active, M.beta_norm**2, 0.0)))
    rhs = (1.0 - bnorm2) ** ((m + 2) / 2.0) * m * r * integrate(M, 1.0 / E.c**2 * np.ones(M.grid.sizes), "a")
    return U - rhs, 0.0, {"umbilicity_defect": U, "bound": rhs}


def _ev_vanishing_parallel(E, hyp):
    return _sup_active(E, E.Abar_bst), 0.0, {}


def _ev_csharp_vanishing(E, hyp):
    return _sup_active(E, E.cc[..., None, None] * E.Csharp_direct), 0.0, {}


def _ev_umbilicity_spread_identity(E, hyp):
    """Cross-check sum_{i<j}(k_i-k_j)^2 = m tr(A^2) - (tr A)^2 pointwise."""
    Asym = E.A_frame_gsym
    alt = E.M.m * np.einsum("...ab,...ba->...", Asym, Asym) - trace(Asym) ** 2
    return _sup_active(E, _curvature_spread(E) - alt), 0.0, {}


# --------------------------------------------------------------------------
# formula registry
# --------------------------------------------------------------------------


# gates shared by several rows
_SMOOTH = ("smooth-beta",)
_FLAT = ("unmasked", "flat")
_FLAT_ANY = ("berwald", "beta-zero")
_PARALLEL_FLAT = ("unmasked", "flat", "berwald", "nowhere-orthogonal", "beta-nonzero")
_PARALLEL = ("unmasked", "berwald", "nowhere-orthogonal", "beta-nonzero")
_TG = ("unmasked", "flat", "berwald", "nowhere-orthogonal", "totally-geodesic")

# the report's config lists the selected formulas in this order
FORMULAS: dict[str, Formula] = {f.fid: f for f in (
    Formula("reeb-riemannian", "total mean curvature of the leaves, base metric", _ev_reeb_riemannian),
    Formula("reeb-weighted", "weighted mean curvature balance, base metric", _ev_reeb_weighted),
    Formula("reeb-normal-metric", "total mean curvature, normal metric g", _ev_reeb_normal_metric,
            requires=_SMOOTH),
    Formula("reeb-finsler", "total Finslerian mean curvature", _ev_reeb_finsler,
            requires=_SMOOTH, any_of=("berwald", "beta-zero", "singular")),
    Formula("second-order-riemannian",
            "twice total second mean curvature vs total normal Ricci, base metric",
            _ev_second_order_riemannian, requires=("unmasked",)),
    Formula("second-order-finsler", "total second mean curvature vs normal Ricci, Finsler structure",
            _ev_second_order_finsler, requires=("unmasked",), any_of=_FLAT_ANY),
    Formula("sigma-flat-k1", "total sigma_1 of the full shape operator on flat Berwald examples",
            _ev_sigma_flat(1), requires=_FLAT, any_of=_FLAT_ANY),
    Formula("curvature-series-k1", "order-1 term of the curvature series (flat reduction)",
            _ev_curvature_series(1), requires=_FLAT, any_of=_FLAT_ANY),
    Formula("berwald-sigma-k1", "parallel-beta sigma_1 expansion through Newton transformations",
            _ev_berwald_sigma(1), requires=_PARALLEL_FLAT),
    Formula("berwald-sigma-k1-printed", "published sigma_1 display (verbatim transcription)",
            _ev_berwald_sigma(1, printed=True), requires=_PARALLEL_FLAT),
    Formula("sigma-tg-k1", "published totally geodesic sigma_1 display", _ev_sigma_tg(1),
            requires=_TG),
    Formula("sigma-flat-k2", "total sigma_2 of the full shape operator on flat Berwald examples",
            _ev_sigma_flat(2), requires=_FLAT, any_of=_FLAT_ANY, min_m=2),
    Formula("curvature-series-k2", "order-2 term of the curvature series (flat reduction)",
            _ev_curvature_series(2), requires=_FLAT, any_of=_FLAT_ANY, min_m=2),
    Formula("berwald-sigma-k2", "parallel-beta sigma_2 expansion through Newton transformations",
            _ev_berwald_sigma(2), requires=_PARALLEL_FLAT, min_m=2),
    Formula("berwald-sigma-k2-printed", "published sigma_2 display (verbatim transcription)",
            _ev_berwald_sigma(2, printed=True), requires=_PARALLEL_FLAT, min_m=2),
    Formula("sigma-tg-k2", "published totally geodesic sigma_2 display", _ev_sigma_tg(2),
            requires=_TG, min_m=2),
    Formula("parallel-second-order-printed", "published parallel-field second-order display (verbatim)",
            _ev_parallel_second_order_printed, requires=_PARALLEL, refuted=True),
    Formula("parallel-second-order-const-printed",
            "published constant-angle second-order display (verbatim)", _ev_parallel_const_printed,
            requires=_PARALLEL + ("constant-beta-N",), refuted=True),
    Formula("parallel-second-order-b-printed",
            "published tangent-parallel second-order display (verbatim)", _ev_parallel_tangent_printed,
            requires=_PARALLEL + ("tangent-beta",), refuted=True),
    Formula("tilt-balance-printed", "published first-order tilt balance (verbatim)",
            _ev_tilt_balance_printed, requires=("beta-nonzero",), refuted=True),
    Formula("tilt-balance-const-printed", "published constant-tilt balance (verbatim)",
            _ev_tilt_const_printed, requires=("constant-c", "constant-beta-N", "beta-N-nonzero")),
    Formula("eigen-balance", "total eigenvalue of the principal direction carrying beta",
            _ev_eigen_balance,
            requires=("zbar-zero", "constant-c", "constant-beta-N", "nowhere-orthogonal")),
    Formula("shape-comparison", "normal-metric shape operator: formula vs direct",
            _ev_shape_comparison, requires=_SMOOTH, kind="sup"),
    Formula("shape-comparison-printed", "published shape-operator display vs direct",
            _ev_shape_comparison_printed, requires=_SMOOTH, kind="sup", refuted=True),
    Formula("z-comparison", "nu-curve curvature vector: formula vs direct", _ev_z_comparison,
            requires=_SMOOTH, kind="sup"),
    Formula("csharp-comparison", "torsion operator: formula vs direct", _ev_csharp_comparison,
            requires=_SMOOTH, kind="sup"),
    Formula("csharp-comparison-printed", "published torsion display vs direct",
            _ev_csharp_comparison_printed, requires=_SMOOTH, kind="sup", refuted=True),
    Formula("csharp-scale", "n-level vs nu-level torsion scale factor", _ev_csharp_scale,
            requires=_SMOOTH, kind="sup"),
    Formula("trace-comparison", "mean curvature of g: comparison trace identity",
            _ev_trace_comparison, requires=_SMOOTH, kind="sup"),
    Formula("codazzi-symmetry", "symmetry of the tangential Zbar derivative", _ev_codazzi, kind="sup"),
    Formula("codazzi-symmetry-g", "symmetry of the tangential Z derivative, metric g", _ev_codazzi_g,
            requires=_SMOOTH, kind="sup"),
    Formula("riccati-identity", "normal Riccati identity for the base metric", _ev_riccati,
            requires=("unmasked",), kind="sup"),
    Formula("volume-distortion", "volume forms against the distortion factor", _ev_volume_distortion,
            kind="sup"),
    Formula("abar-selfadjoint", "self-adjointness of the base shape operator", _ev_abar_selfadjoint,
            kind="sup"),
    Formula("tangency", "Z and Zbar stay tangent to the leaves", _ev_tangency, kind="sup"),
    Formula("energy-bound", "energy of the unit normal against the curvature bound", _ev_energy_bound,
            requires=("berwald",), kind="bound", fixed_tol=1e-8),
    Formula("umbilicity-bound", "umbilicity defect against the negative-Ricci bound",
            _ev_umbilicity_bound, requires=("berwald", "unmasked", "negative-ricci"), kind="bound",
            fixed_tol=1e-8),
    Formula("umbilicity-spread", "principal curvature spread identity",
            _ev_umbilicity_spread_identity, kind="sup"),
    Formula("vanishing-parallel", "parallel constant-angle fields are base-shape null directions",
            _ev_vanishing_parallel,
            requires=("berwald", "nowhere-orthogonal", "beta-nonzero", "constant-beta-N"), kind="sup",
            fixed_tol=1e-8),
    Formula("csharp-vanishing", "torsion operator vanishes for parallel beta with rigid normal geometry",
            _ev_csharp_vanishing, requires=("berwald", "constant-beta-N", "zbar-zero"), kind="sup",
            fixed_tol=1e-8),
)}


def formula_ids() -> list[str]:
    return list(FORMULAS)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


def _judge(
    kind: str,
    value: float,
    expected: float,
    fixed: float | None,
    conv: list[tuple[float, float]],
    policy: tuple[float, float, float],
) -> tuple[str, float, dict]:
    """Verdict, effective tolerance, and audit detail for one check.

    A residual passes if it is below the absolute tolerance, or if the sweep
    shows it decreasing at the policy's rate toward zero (the
    discretization-error regime).  A residual that plateaus above tolerance
    fails.  Bound-type checks compare the margin against a fixed slack.
    """
    if kind == "bound":
        tol = fixed if fixed is not None else BOUND_TOL
        return ("pass" if value >= expected - tol else "fail"), tol, {}
    default_tol, min_ratio, cap = policy
    tol = fixed if fixed is not None else default_tol
    resid = abs(value - expected)
    detail: dict[str, float] = {}
    if resid <= max(tol, SUP_FLOOR):
        return "pass", tol, detail
    if len(conv) >= 2:
        r_coarse, r_fine = conv[-2][1], conv[-1][1]
        ratio = r_coarse / max(r_fine, 1e-300)
        detail["convergence_ratio"] = ratio
        # extrapolated residual at the limit, assuming the observed decay
        extrap = r_fine / max(ratio - 1.0, 1e-300) if ratio > 1.0 else float("inf")
        detail["extrapolated_residual"] = extrap
        if ratio >= min_ratio and resid <= cap:
            return "pass", tol, detail
    return "fail", tol, detail


def _sweep_point(subspec: ExampleSpec, fids: list[str], scheme: str):
    M = build_example(subspec)
    E = build_extrinsic(M, scheme)
    hyp = hypothesis_profile(E)
    values: dict[str, tuple[float, float, dict]] = {}
    for fid in fids:
        formula = FORMULAS[fid]
        if formula.applicable(hyp, M.m):
            values[fid] = formula.evaluate(E, hyp)
    return M, hyp, values


def run_formulas(
    spec: ExampleSpec,
    fids: list[str],
    resolutions: list[int],
    scheme: str = "spectral",
    jobs: int = 1,
) -> list[ResidualReport]:
    """Evaluate the requested formulas on a sweep; verdicts at the finest level.

    Torus examples sweep the grid resolution.  Excised examples run at the
    finest requested grid and sweep the excision radius instead (taken from
    the ``r0_sweep`` parameter, default 0.2/0.1/0.05), since the cap
    truncation, not the grid, limits their residuals.  ``jobs`` bounds the
    worker threads; every sweep point is independent and reports are merged
    in sweep order, so results do not depend on the worker count.
    """
    unknown = [f for f in fids if f not in FORMULAS]
    if unknown:
        raise ValueError(f"unknown formula ids: {', '.join(unknown)}")
    if not resolutions:
        raise ValueError("need at least one resolution")
    probe = build_example(spec.with_resolution(max(resolutions)))
    singular = probe.mask is not None
    if singular:
        r0s = spec.params.get("r0_sweep", DEFAULT_R0_SWEEP)
        r0s = sorted(r0s if isinstance(r0s, (tuple, list)) else (r0s,), reverse=True)
        sweep = []
        for r0 in r0s:
            params = dict(spec.params)
            params["r0"] = r0
            sweep.append((ExampleSpec(spec.name, params).with_resolution(max(resolutions)), r0))
    else:
        sweep = [(spec.with_resolution(n), float(n)) for n in sorted(set(resolutions))]
    if jobs > 1 and len(sweep) > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda sl: _sweep_point(sl[0], fids, scheme), sweep))
    else:
        results = [_sweep_point(subspec, fids, scheme) for subspec, _ in sweep]
    per_res: list[tuple[float, dict, dict]] = []
    for (subspec, label), (M, hyp, values) in zip(sweep, results):
        h = label if singular else max(M.grid.spacings)
        per_res.append((h, hyp, values))
        example_name = M.name
        finest_res = M.grid.sizes
    reports = []
    _, hyp_fine, values_fine = per_res[-1]
    for fid in fids:
        formula = FORMULAS[fid]
        if fid not in values_fine:
            reports.append(
                ResidualReport(
                    formula_id=fid,
                    example=example_name,
                    resolution=finest_res,
                    scheme=scheme,
                    value=0.0,
                    expected=0.0,
                    tolerance=0.0,
                    verdict="not-applicable",
                    hypotheses=hyp_fine,
                    convergence=[],
                    detail={},
                )
            )
            continue
        conv = [
            (h, abs(v[fid][0] - v[fid][1]))
            for h, _, v in per_res
            if fid in v
        ]
        value, expected, detail = values_fine[fid]
        # sup-norm residuals converge in h even on excised runs
        policy = SINGULAR_POLICY if singular and formula.kind != "sup" else SMOOTH_POLICY
        verdict, tol, audit = _judge(
            formula.kind, float(value), float(expected), formula.fixed_tol, conv, policy
        )
        reports.append(
            ResidualReport(
                formula_id=fid,
                example=example_name,
                resolution=finest_res,
                scheme=scheme,
                value=float(value),
                expected=float(expected),
                tolerance=float(tol),
                verdict=verdict,
                hypotheses=hyp_fine,
                convergence=conv,
                detail={**detail, **audit},
            )
        )
    return reports
