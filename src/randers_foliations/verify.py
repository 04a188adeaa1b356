"""Integral-formula and comparison-formula verification engine.

Every check is a :class:`Formula`: its hypothesis gates, an evaluator that
maps the bundle to the row's pointwise field, and the reduction its ``kind``
names.  Each formula is stated against zero: an integral that vanishes
(``zero``: the field against the row's ``volume``), a sup-norm difference of
two routes (``sup``: max |f|), or the margin of a bound.  The judging mask is
an argument of the reduction, not of the field, so one field is reduced on
every mask that judges it.  The runner sweeps the resolutions in turn, records
the convergence table, and one judge gives the verdict at the finest grid.
A gate is one row of ``GATES``: a quantity measured numerically on the
example at hand, a comparison and a threshold.  Gates never pass
silently: each report entry carries its row's gates as ``[measured,
threshold, held]``, and an example that fails a row's gates yields the
first-class verdict ``not-applicable``.

Formulas whose published closed form disagrees with the definitional route
are shipped twice: the corrected version under the plain id, and the verbatim
transcription under the ``-printed`` suffix, so the convergence tables
document which one the numerics support.  See the package README for the
catalog of checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import ExampleError, ExampleSpec, build_example, sweep_points
from .extrinsic import ExtrinsicBundle
from .invariants import dot, matvec, newton_chain, outer, quad, sigma_k, trace
from .manifold import deformation_tensor, gradient, integrate
from .report import ResidualReport

__all__ = ["Formula", "formula_ids", "run_formulas", "hypothesis_profile", "FORMULAS", "GATES"]

BOUND_TOL = 1e-8    # slack of bound-type checks

# judging policy (tol, ratio, cap): the default absolute tolerance, the
# residual decay per sweep step that certifies convergence, and the residual
# above which a converging check is still "not yet resolved"
SMOOTH_POLICY = (1e-6, 4.0, 1e-2)
# excised (singular) runs converge in the excision radius, not in h; the
# truncation left by the excised caps dominates every integral residual
SINGULAR_POLICY = (1e-2, 2.5, 0.1)


# --------------------------------------------------------------------------
# hypothesis gates
# --------------------------------------------------------------------------


def _sup(field: np.ndarray, mask: np.ndarray) -> float:
    """max |f| over the judged nodes ``mask``."""
    a = mask.reshape(mask.shape + (1,) * (field.ndim - mask.ndim))
    # max |f| without an |f| copy; abs() only turns a -0.0 maximum into 0.0
    return float(abs(max(np.max(field, where=a, initial=0), -np.min(field, where=a, initial=0))))


def _masked(E: ExtrinsicBundle, mask: np.ndarray) -> float:
    """1.0 where the build excises nodes, 0.0 on a full chart."""
    return 0.0 if E.M.mask is None else 1.0


# gate -> (label, measure, comparison, threshold): the measure reads the judged nodes ``mask`` and the
# label names it for ``--list``; a measure of None (the curvature of a masked run) does not hold
GATES: dict[str, tuple[str, Callable[[ExtrinsicBundle, np.ndarray], float | None], str, float]] = {
    "berwald": ("sup_nabla_beta", lambda E, mask: _sup(E.nabla_beta_sharp, mask), "<", 1e-8),
    "flat": ("sup_riemann", lambda E, mask: E.sup_riemann, "<", 1e-7),
    "unmasked": ("masked", _masked, "==", 0.0),
    "singular": ("masked", _masked, "==", 1.0),
    "nowhere-orthogonal": ("min_beta_top",
                           lambda E, mask: float(np.min(np.sqrt(np.clip(1.0 - E.M.c[mask] ** 2, 0.0, None)))),
                           ">", 1e-6),
    "constant-c": ("var_c", lambda E, mask: float(np.ptp(E.M.c[mask])), "<", 1e-9),
    "constant-beta-N": ("var_beta_N", lambda E, mask: float(np.ptp(E.M.beta_N[mask])), "<", 1e-9),
    "beta-N-nonzero": ("min_abs_beta_N", lambda E, mask: float(np.min(np.abs(E.M.beta_N[mask]))), ">", 1e-6),
    "tangent-beta": ("sup_beta_N", lambda E, mask: _sup(E.M.beta_N, mask), "<", 1e-9),
    "beta-nonzero": ("sup_beta", lambda E, mask: _sup(E.M.beta_norm, mask), ">", 1e-10),
    "zbar-zero": ("sup_zbar", lambda E, mask: _sup(E.Zbar, mask), "<", 1e-9),
    "totally-geodesic": ("sup_abar", lambda E, mask: _sup(E.Abar, mask), "<", 1e-9),
    "negative-ricci": ("max_ricci_N",
                       lambda E, mask: None if E.ricci_N is None else float(np.max(E.ricci_N)), "<", -1e-9),
    "smooth-beta": ("beta_singular", lambda E, mask: 1.0 if E.M.beta_singular else 0.0, "==", 0.0),
    "two-dim-leaves": ("m", lambda E, mask: E.M.m, ">=", 2),      # leaf dimension
}
_COMPARE = {"<": operator.lt, ">": operator.gt, "==": operator.eq, ">=": operator.ge}


def hypothesis_profile(E: ExtrinsicBundle, mask: np.ndarray, names: set[str]) -> dict[str, list]:
    """``[measured, threshold, held]`` of each gate in ``names``, on the judged nodes ``mask``."""
    profile = {}
    for name, (_, measure, op, threshold) in GATES.items():
        if name in names:
            measured = measure(E, mask)
            profile[name] = [measured, threshold, measured is not None and _COMPARE[op](measured, threshold)]
    return profile


@dataclass(frozen=True)
class Formula:
    fid: str
    description: str
    # the row's pointwise field; a composite row returns its own mask -> (value, detail)
    evaluate: Callable[[ExtrinsicBundle], np.ndarray | Callable]
    requires: tuple[str, ...] = ()        # gates that must all hold
    any_of: tuple[str, ...] = ()          # at least one must hold, if nonempty
    kind: str = "zero"                    # zero | sup | bound
    volume: str = "a"                     # the measure a ``zero`` row integrates against
    fixed_tol: float | None = None
    # verbatim published display that the convergence tables refute; selected
    # only by ``--formulas full`` or by name
    refuted: bool = False

    @property
    def gate_names(self) -> tuple[str, ...]:
        return self.requires + self.any_of

    def applicable(self, hyp: dict) -> bool:
        """Whether the row's gates hold, read from ``hyp``: a ``hypothesis_profile`` naming all of them."""
        return all(hyp[g][2] for g in self.requires) and (not self.any_of or any(hyp[g][2] for g in self.any_of))

    @property
    def gate_label(self) -> str:
        """The row's gate names, as ``--list`` shows them."""
        return (",".join(self.requires) or "-") + (f" any-of[{','.join(self.any_of)}]" if self.any_of else "")

    def values(self, E: ExtrinsicBundle, masks: list[np.ndarray]) -> list[tuple[float, dict]]:
        """Value and detail on each judging mask, all reduced from one evaluation.

        A ``sup`` row takes max |f| over the mask, a ``zero`` row integrates f
        against ``volume`` over it; a composite row reduces itself.
        """
        field = self.evaluate(E)
        if callable(field):
            return [field(mask) for mask in masks]
        if self.kind == "sup":
            return [(_sup(field, mask), {}) for mask in masks]
        return [(integrate(E.M, field, self.volume, mask), {}) for mask in masks]


# --------------------------------------------------------------------------
# shared field helpers
# --------------------------------------------------------------------------


def _curvature_spread(E):
    """sum_{i<j} (k_i - k_j)^2 over the principal curvatures."""
    ks = E.principal_curvatures
    spread = np.zeros(E.M.grid.sizes)
    for i in range(E.M.m):
        for j in range(i + 1, E.M.m):
            spread += (ks[..., i] - ks[..., j]) ** 2
    return spread


# --------------------------------------------------------------------------
# evaluators: each returns the row's pointwise field (composite rows: its
# reduction, mask -> (value, detail)); one-line fields sit in the table
# --------------------------------------------------------------------------


def _ev_reeb_weighted(E):
    """f tr(Abar) - N(f) for a smooth test function f."""
    M = E.M
    x0 = M.grid.meshgrid()[0]
    if M.mask is None:
        f = np.exp(np.cos(2.0 * np.pi * x0 / M.grid.periods[0]))
    else:
        f = np.exp(0.3 * np.sin(2.0 * x0))  # periodic in the excised chart
    return f * trace(E.Abar_frame) - dot(M.N, gradient(M, f, E.scheme))


# -- Berwald sigma_k expansions ------------------------------------------------


def _ev_berwald_sigma(k, printed=False):
    def ev(E):
        m = E.M.m
        Ab = E.Abar_frame
        Csh = E.Csharp_formula
        cC = E.M.c[..., None, None] * Csh
        b = E.b_frame
        X = Ab + E.delta[..., None, None] * np.eye(m)
        core = X + cC
        U1, U2, a3 = E.rank_one(printed)
        # sigma_k(X + cC + b U1^T + U2 b^T + a3 b b^T); the display's
        # sum_{j>=1} sigma_(k-j,j)(X, cC) is sigma_k(X + cC) - sigma_k(X)
        full = sigma_k(core, k) + newton_chain(core, k, [(b, U1, 1.0), (U2, b, 1.0), (b, b, a3)])
        if printed:
            # published display: sigma_k(Abar + delta I) truncated at first order
            return E.delta * (m - k + 1) * sigma_k(Ab, k - 1) + full - sigma_k(X, k)
        return full / E.M.c**k - sigma_k(Ab, k)

    return ev


def _ev_sigma_tg(k):
    """Totally geodesic sigma_k expansion, t1 + t2 + t3 + t4, as transcribed.

    ``t2`` reads T_{k-1}(C^sharp + delta I), while ``t3`` and ``t4`` chain from
    c C^sharp + delta I; no run can tell which core the published display
    means.  The rows apply only on ``flat-parallel``, where Abar, Zbar and
    delta vanish exactly, so C^sharp and every term are 0 and both rows read
    0.0 by construction: they show that the expansion is assembled, not that
    it holds.
    """

    def ev(E):
        c, ch, cc = E.M.c, E.M.chat, E.cc
        Csh, b, Zp = E.Csharp_formula, E.b_frame, E.perp_beta(E.Zbar_frame)
        dI = E.delta[..., None, None] * np.eye(E.M.m)
        w1 = (c - 2 * ch) / (2 * cc)
        t1 = c**k * sigma_k(Csh, k)
        t2 = newton_chain(Csh + dI, k, [(b, Zp, w1)])
        # R1 = (Zbar^perp)^flat (x) bst: eats <Zbar^perp, .>, outputs bst
        core = c[..., None, None] * Csh + dI + outer(b, Zp) * w1[..., None, None]
        ups = [(Zp, b, c * (c - 2 * ch) / (2 * ch)), (b, b, (c - 2 * ch) / (cc * E.b2) * E.beta_Zbar)]
        return t1 + t2 + newton_chain(core, k, ups)

    return ev


# -- second-order parallel-field family (printed displays) --------------------


def _ev_parallel_second_order_printed(E):
    M = E.M
    c, ch, cc = M.c, M.chat, E.cc
    Csh = E.Csharp_formula
    X = E.Abar_frame + c[..., None, None] * Csh
    bf = E.b_frame
    Xb_b = quad(bf, X, bf)
    Ab_b = E.Abst_beta
    bZ = E.beta_Zbar
    perp = E.perp_beta
    return (1.0 / c**2) * (
        sigma_k(X, 2)
        + ((c - 2 * ch) / cc * Ab_b - (ch - c) / (c**2 * ch) * bZ) * trace(X)
        + (ch - c) / (cc * E.b2) * Xb_b * Ab_b
        + (c - 2 * ch) / (cc * E.b2) * bZ * Xb_b
        - _printed_tail(c, ch, perp(E.Abst_frame), perp(E.Zbar_frame), perp(matvec(Csh, bf)))
        - 0.5 * E.ricci_N
    )


def _parallel_printed_head(E):
    """The head c tr(C#) tr(Abar) - c tr(Abar C#) of both constant-angle displays,
    and the frame vectors Abar(bst), Zbar and C# bst that their tails pair."""
    c, Csh, Abf = E.M.c, E.Csharp_formula, E.Abar_frame
    head = c * trace(Csh) * trace(Abf) - c * trace(Abf @ Csh)
    return head, E.Abst_frame, E.Zbar_frame, matvec(Csh, E.b_frame)


def _printed_tail(c, ch, A, Z, C):
    """The published second-order tail at chat = ``ch``, a quadratic form in the frame vectors
    A, Z, C: the parallel display pairs their beta-perpendicular parts, the constant-angle one
    the vectors, and the tangent one (its gate holds |beta(N)| < 1e-9 only) the vectors at chat = c."""
    cc = c * ch
    return (
        (1 - (c - 2 * ch) ** 2) / (4 * ch**2) * dot(A, A)
        + (c - 2 * ch) * (1 - c**2 + 2 * cc) / (2 * ch**2) * dot(A, Z)
        + (1 + c**2 - 2 * cc) / (2 * ch) * dot(A, C)
        + (c - 2 * ch) ** 2 * (1 - c**2) / (4 * ch**2) * dot(Z, Z)
        + (c - 2 * ch) * (1 + c**2) / (2 * ch) * dot(C, Z)
    )


def _ev_parallel_const_printed(E, tangent=False):
    """The constant-angle display, or at ``tangent`` the tangent-parallel one: its tail at chat = c."""
    c = E.M.c
    head, Ab, Zb, Cb = _parallel_printed_head(E)
    return head - _printed_tail(c, c if tangent else E.M.chat, Ab, Zb, Cb)


# -- first-order tilt family ----------------------------------------------------


def _ev_tilt_balance_printed(E):
    M = E.M
    Nc = dot(M.N, E.d_c)
    return (
        E.cc ** (M.m / 2.0)
        / M.c**2
        * (M.chat - M.c)
        * (M.c * Nc + M.c * E.beta_Zbar + E.Abst_beta)
    )


def _ev_eigen_balance(E):
    # beta_sharp_top is an eigenfield of Abar; check it in the frame and integrate the
    # eigenvalue (0 off M.active, which holds every judging mask; E.b2 guards the division)
    M = E.M
    lam = np.where(M.active, E.Abst_beta / E.b2, 0.0)
    Ares = E.Abst_frame - lam[..., None] * E.b_frame
    return lambda mask: (integrate(M, lam, "a", mask), {"eigenfield_residual": _sup(Ares, mask)})


# -- comparison (sup-norm) checks ------------------------------------------------


def _ev_csharp_scale(E):
    """Settles the torsion scale factor: C#_n = (c chat) C#_nu."""
    Cn, C, cc = E.Csharp_n_direct_numeric, E.Csharp_direct, E.cc[..., None, None]
    resid = Cn - cc * C

    def judged(mask):
        detail = {}
        mag = np.where(mask[..., None, None], np.abs(C), 0.0)
        big = mag > max(1e-8, 0.1 * float(np.max(mag)))
        if np.any(big):
            detail["median_ratio"] = float(np.median(Cn[big] / C[big]))
            detail["median_cc"] = float(np.median(np.broadcast_to(cc, mag.shape)[big]))
            detail["median_chat3"] = float(
                np.median(np.broadcast_to(E.M.chat[..., None, None] ** 3, mag.shape)[big])
            )
            detail["median_cc3"] = float(np.median(np.broadcast_to(cc**3, mag.shape)[big]))
        return _sup(resid, mask), detail

    return judged


def _ev_trace_comparison(E):
    M = E.M
    div_bs = trace(E.nabla_beta_sharp)
    Nchat = dot(M.N, E.d_chat)
    rhs = (
        trace(E.Abar_frame)
        + M.m * E.delta
        + div_bs / M.chat
        - Nchat / M.chat
    )
    return M.c * trace(E.Ag_direct) - rhs


def _codazzi_asymmetry(E, nabZ, metric):
    """Antisymmetric part of the tangential form <nabla_u Z, v> = P^T (nabZ^T metric) P."""
    P = E.M.tangent_projector
    form = np.swapaxes(nabZ, -1, -2) @ metric  # u = the derivative slot of nabZ
    formt = np.swapaxes(P, -1, -2) @ form @ P
    return formt - np.swapaxes(formt, -1, -2)


def _ev_riccati(E):
    """R_N = P (Def_Zbar + nabla_N Abar) P - Abar^2 - Zbar (x) Zbar^flat, as a sup residual."""
    M = E.M
    P = M.tangent_projector
    inner = deformation_tensor(M, E.nabla_Zbar)
    inner += E.nabla_N_Abar()
    resid = P @ inner @ P
    del inner
    resid -= E.Abar @ E.Abar
    resid -= outer(E.Zbar, matvec(M.a, E.Zbar))
    resid -= E.R_N
    return resid


def _ev_volume_distortion(E):
    M = E.M
    lhs = M.volume_density("g")
    rhs = np.exp(E.distortion_nu) * M.volume_density("F")
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    return np.maximum(rel, np.abs(E.distortion_det_route - E.distortion_nu))


def _ev_tangency(E):
    M = E.M
    gz = quad(E.Z_direct, E.g, M.nu_field)
    return np.maximum(np.abs(gz), np.abs(M.inner(E.Zbar, M.N)))


# -- inequalities and vanishing conclusions ---------------------------------------


def _max_beta2(M, mask: np.ndarray) -> float:
    """max |beta|^2 over the judged nodes, the base of both bounds' volume factor."""
    return float(np.max(np.where(mask, M.beta_norm**2, 0.0)))


def _ev_energy_bound(E):
    M = E.M
    m = M.m
    ones = np.ones(M.grid.sizes)
    Asym = E.A_frame_gsym
    trA2 = trace(Asym @ Asym)
    ric_nu = E.ricci_N / M.c**2

    def judged(mask):
        volF = integrate(M, ones, "F", mask)
        volA = integrate(M, ones, "a", mask)
        energy = (m + 1) / 2.0 * volF + 0.5 * integrate(M, trA2, "F", mask)
        ric_term = integrate(M, ric_nu, "a", mask)
        rhs = (1.0 - _max_beta2(M, mask)) ** ((m + 2) / 2.0) * ((m + 1) / 2.0 * volA + ric_term / (2.0 * m))
        return energy - rhs, {"energy": energy, "bound": rhs, "vol_F": volF}

    return judged


def _ev_umbilicity_bound(E):
    M = E.M
    m = M.m
    spread = _curvature_spread(E)
    r = -float(np.max(E.ricci_N))
    inv_c2 = 1.0 / M.c**2 * np.ones(M.grid.sizes)

    def judged(mask):
        U = integrate(M, spread, "F", mask)
        rhs = (1.0 - _max_beta2(M, mask)) ** ((m + 2) / 2.0) * m * r * integrate(M, inv_c2, "a", mask)
        return U - rhs, {"umbilicity_defect": U, "bound": rhs}

    return judged


def _ev_umbilicity_spread_identity(E):
    """Cross-check sum_{i<j}(k_i-k_j)^2 = m tr(A^2) - (tr A)^2 pointwise."""
    Asym = E.A_frame_gsym
    alt = E.M.m * trace(Asym @ Asym) - trace(Asym) ** 2
    return _curvature_spread(E) - alt


# --------------------------------------------------------------------------
# formula registry
# --------------------------------------------------------------------------


# gates shared by several rows
_SMOOTH = ("smooth-beta",)
_FLAT = ("unmasked", "flat", "berwald")  # beta = 0 is parallel, so berwald holds there too
_PARALLEL_FLAT = _FLAT + ("nowhere-orthogonal",)  # nowhere-orthogonal implies beta != 0
_PARALLEL = ("unmasked", "berwald", "nowhere-orthogonal")
_TG = _PARALLEL_FLAT + ("totally-geodesic",)
_2D = ("two-dim-leaves",)                 # sigma_2 needs m >= 2

# the report's config lists the selected formulas in this order
FORMULAS: dict[str, Formula] = {f.fid: f for f in (
    Formula("reeb-riemannian", "total mean curvature of the leaves, base metric",
            lambda E: trace(E.Abar_frame)),
    Formula("reeb-weighted", "weighted mean curvature balance, base metric", _ev_reeb_weighted),
    Formula("reeb-normal-metric", "total mean curvature, normal metric g", lambda E: trace(E.Ag_direct),
            requires=_SMOOTH, volume="g"),
    Formula("reeb-finsler", "total Finslerian mean curvature", lambda E: trace(E.A_frame),
            requires=_SMOOTH, any_of=("berwald", "singular"), volume="F"),
    Formula("second-order-riemannian",
            "twice total second mean curvature vs total normal Ricci, base metric",
            lambda E: 2.0 * sigma_k(E.Abar_frame, 2) - E.ricci_N, requires=("unmasked",)),
    # Ric_nu of the Finsler structure is c^-2 Ric_N of the base metric
    Formula("second-order-finsler", "total second mean curvature vs normal Ricci, Finsler structure",
            lambda E: sigma_k(E.A_frame, 2) - 0.5 * (E.ricci_N / E.M.c**2),
            requires=("unmasked", "berwald"), volume="F"),
    Formula("sigma-flat-k1", "total sigma_1 of the full shape operator on flat Berwald examples",
            lambda E: sigma_k(E.A_frame, 1), requires=_FLAT, volume="F"),
    Formula("curvature-series-k1", "order-1 term of the curvature series (flat reduction)",
            lambda E: sigma_k(E.A_frame, 1), requires=_FLAT, volume="F"),
    Formula("berwald-sigma-k1", "parallel-beta sigma_1 expansion through Newton transformations",
            _ev_berwald_sigma(1), requires=_PARALLEL_FLAT),
    Formula("berwald-sigma-k1-printed", "published sigma_1 display (verbatim transcription)",
            _ev_berwald_sigma(1, printed=True), requires=_PARALLEL_FLAT),
    Formula("sigma-tg-k1", "published totally geodesic sigma_1 display", _ev_sigma_tg(1),
            requires=_TG),
    Formula("sigma-flat-k2", "total sigma_2 of the full shape operator on flat Berwald examples",
            lambda E: sigma_k(E.A_frame, 2), requires=_FLAT + _2D, volume="F"),
    Formula("curvature-series-k2", "order-2 term of the curvature series (flat reduction)",
            lambda E: sigma_k(E.A_frame, 2), requires=_FLAT + _2D, volume="F"),
    Formula("berwald-sigma-k2", "parallel-beta sigma_2 expansion through Newton transformations",
            _ev_berwald_sigma(2), requires=_PARALLEL_FLAT + _2D),
    Formula("berwald-sigma-k2-printed", "published sigma_2 display (verbatim transcription)",
            _ev_berwald_sigma(2, printed=True), requires=_PARALLEL_FLAT + _2D),
    Formula("sigma-tg-k2", "published totally geodesic sigma_2 display", _ev_sigma_tg(2),
            requires=_TG + _2D),
    Formula("parallel-second-order-printed", "published parallel-field second-order display (verbatim)",
            _ev_parallel_second_order_printed, requires=_PARALLEL, refuted=True),
    Formula("parallel-second-order-const-printed",
            "published constant-angle second-order display (verbatim)", _ev_parallel_const_printed,
            requires=_PARALLEL + ("constant-beta-N",), refuted=True),
    Formula("parallel-second-order-b-printed",
            "published tangent-parallel second-order display (verbatim)",
            lambda E: _ev_parallel_const_printed(E, tangent=True),
            requires=_PARALLEL + ("tangent-beta",), refuted=True),
    Formula("tilt-balance-printed", "published first-order tilt balance (verbatim)",
            _ev_tilt_balance_printed, requires=("beta-nonzero",), refuted=True),
    Formula("tilt-balance-const-printed", "published constant-tilt balance (verbatim)",
            lambda E: E.Abst_beta + E.M.c * E.beta_Zbar,
            requires=("constant-c", "constant-beta-N", "beta-N-nonzero")),
    Formula("eigen-balance", "total eigenvalue of the principal direction carrying beta",
            _ev_eigen_balance,
            requires=("zbar-zero", "constant-c", "constant-beta-N", "nowhere-orthogonal")),
    Formula("shape-comparison", "normal-metric shape operator: formula vs direct",
            lambda E: E.Ag_formula - E.Ag_direct, requires=_SMOOTH, kind="sup"),
    Formula("shape-comparison-printed", "published shape-operator display vs direct",
            lambda E: E.Ag_printed - E.Ag_direct, requires=_SMOOTH, kind="sup", refuted=True),
    Formula("z-comparison", "nu-curve curvature vector: formula vs direct",
            lambda E: E.Z_formula - E.Z_direct_frame, requires=_SMOOTH, kind="sup"),
    Formula("csharp-comparison", "torsion operator: formula vs direct",
            lambda E: E.Csharp_formula - E.Csharp_direct, requires=_SMOOTH, kind="sup"),
    Formula("csharp-comparison-printed", "published torsion display vs direct",
            lambda E: E.Csharp_printed - E.Csharp_direct, requires=_SMOOTH, kind="sup", refuted=True),
    Formula("csharp-scale", "n-level vs nu-level torsion scale factor", _ev_csharp_scale,
            requires=_SMOOTH, kind="sup"),
    Formula("trace-comparison", "mean curvature of g: comparison trace identity",
            _ev_trace_comparison, requires=_SMOOTH, kind="sup"),
    Formula("codazzi-symmetry", "symmetry of the tangential Zbar derivative",
            lambda E: _codazzi_asymmetry(E, E.nabla_Zbar, E.M.a), kind="sup"),
    Formula("codazzi-symmetry-g", "symmetry of the tangential Z derivative, metric g",
            lambda E: _codazzi_asymmetry(E, E.nabla_Z_direct, E.g), requires=_SMOOTH, kind="sup"),
    Formula("riccati-identity", "normal Riccati identity for the base metric", _ev_riccati,
            requires=("unmasked",), kind="sup"),
    Formula("volume-distortion", "volume forms against the distortion factor", _ev_volume_distortion,
            kind="sup"),
    Formula("abar-selfadjoint", "self-adjointness of the base shape operator",
            lambda E: E.Abar_frame - np.swapaxes(E.Abar_frame, -1, -2), kind="sup"),
    Formula("tangency", "Z and Zbar stay tangent to the leaves", _ev_tangency, kind="sup"),
    Formula("energy-bound", "energy of the unit normal against the curvature bound", _ev_energy_bound,
            requires=("berwald", "unmasked"), kind="bound"),
    Formula("umbilicity-bound", "umbilicity defect against the negative-Ricci bound",
            _ev_umbilicity_bound, requires=("berwald", "unmasked", "negative-ricci"), kind="bound"),
    Formula("umbilicity-spread", "principal curvature spread identity",
            _ev_umbilicity_spread_identity, kind="sup"),
    Formula("vanishing-parallel", "parallel constant-angle fields are base-shape null directions",
            lambda E: E.Abst_frame,
            requires=("berwald", "nowhere-orthogonal", "constant-beta-N"), kind="sup",
            fixed_tol=1e-8),
    Formula("csharp-vanishing", "torsion operator vanishes for parallel beta with rigid normal geometry",
            lambda E: E.cc[..., None, None] * E.Csharp_direct,
            requires=("berwald", "constant-beta-N", "zbar-zero"), kind="sup", fixed_tol=1e-8),
)}


def formula_ids() -> list[str]:
    return list(FORMULAS)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


def _judge(
    formula: Formula, value: float, conv: list[tuple[float, float]], singular: bool
) -> tuple[str, float, dict]:
    """Verdict, effective tolerance, and audit detail for one check.

    A residual passes if it is below the absolute tolerance, or if the sweep
    shows it decreasing at the policy's rate toward zero (the
    discretization-error regime).  A residual that plateaus above tolerance
    fails.  Above tolerance the audit carries the last convergence ratio, and
    the extrapolated residual only where that ratio meets the policy's rate.
    Bound-type checks compare the margin against a fixed slack.
    Excised runs judge integral residuals by the singular policy; sup-norm
    residuals converge in h even there.
    """
    if formula.kind == "bound":
        return ("pass" if value >= -BOUND_TOL else "fail"), BOUND_TOL, {}
    tol, min_ratio, cap = SINGULAR_POLICY if singular and formula.kind != "sup" else SMOOTH_POLICY
    if formula.fixed_tol is not None:
        tol = formula.fixed_tol
    resid = abs(value)
    detail: dict[str, float] = {}
    if resid <= tol:
        return "pass", tol, detail
    if len(conv) >= 2:
        r_coarse, r_fine = conv[-2][1], conv[-1][1]
        ratio = r_coarse / max(r_fine, 1e-300)
        detail["convergence_ratio"] = ratio
        if ratio >= min_ratio:
            # the residual extrapolated to the limit by the observed decay; a sweep
            # that decays slower than the policy's rate (a plateau) has none
            detail["extrapolated_residual"] = r_fine / (ratio - 1.0)
            if resid <= cap:
                return "pass", tol, detail
    return "fail", tol, detail


# checks whose residual is a sup over a coordinate array: evaluated first, so
# the coordinate (d, d) fields that only they read die before the frame checks
_COORDINATE_FIRST = (
    "codazzi-symmetry", "codazzi-symmetry-g", "riccati-identity", "trace-comparison", "tangency",
    "volume-distortion",
)


def _sweep_point(
    subspec: ExampleSpec, masks: list | None, fids: list[str], scheme: str, plan: dict | None = None
):
    """Hypotheses, formula values and release record of one sweep point.

    The point builds its manifold and bundle once and judges them on each
    labelled mask of ``masks`` (default: the build's own active set,
    labelled by the smallest grid spacing: a graph torus refines one axis
    and holds the others at ``grid.MIN_SIZE``).  The hypotheses (the gates
    of ``fids``, and ``singular``) are the stage "hyp"; each
    check is a stage of its own, the ``_COORDINATE_FIRST`` checks before
    the rest.  A check's stage forms its field once and reduces it on
    every mask where the check applies, so no mask's early checks run on top
    of the fields of another mask's later ones.  Given ``plan``, the bundle
    drops each field when the stage the plan names as its last reader ends.
    Returns the example's name and grid (not the manifold, so no point's
    fields stay alive while the next point is built), the hypotheses of the
    last mask, a ``(label, values)`` pair per mask, and the point's record of
    last readers: from the sweep's probe, the plan of every point.
    """
    M = build_example(subspec)
    E = ExtrinsicBundle(M, scheme, plan)
    masks = masks or [(min(M.grid.spacings), M.active)]
    E.stage = "hyp"
    names = {g for fid in fids for g in FORMULAS[fid].gate_names} | {"singular"}
    hyps = [hypothesis_profile(E, mask, names) for _, mask in masks]
    E.end_stage()
    values: list[dict[str, tuple[float, dict]]] = [{} for _ in masks]
    order = [f for f in _COORDINATE_FIRST if f in fids] + [f for f in fids if f not in _COORDINATE_FIRST]
    for fid in order:
        E.stage = fid
        formula = FORMULAS[fid]
        judged = [i for i, hyp in enumerate(hyps) if formula.applicable(hyp)]
        if judged:
            for i, value in zip(judged, formula.values(E, [masks[i][1] for i in judged])):
                values[i][fid] = value
        E.end_stage()
    return M.name, M.grid, hyps[-1], [(label, v) for (label, _), v in zip(masks, values)], E.last_reader


def _probe_plan(probe: ExampleSpec, fids: list[str], scheme: str) -> dict | None:
    """The release record of the sweep's ``probe``, or None where the probe raises."""
    try:
        return _sweep_point(probe, None, fids, scheme)[-1]
    except (ExampleError, FloatingPointError):
        return None


def run_formulas(
    spec: ExampleSpec, fids: list[str], resolutions: list[int], scheme: str = "spectral"
) -> list[ResidualReport]:
    """Evaluate the requested formulas on a sweep; verdicts at the finest level.

    ``catalog.sweep_points`` says what the sweep is: the tori sweep the grid
    resolution, one point per size, and the excised sphere sweeps the
    excision radius in one point at the finest grid, built at the smallest
    radius and judged on each radius's mask.  On a radius's active nodes
    every field equals that of a build at that radius, bit for bit, with one
    exception: ``nabla_Z_direct`` is a spectral derivative of ``Z_direct``,
    whose excised nodes take the mask's identity fill.  Its one reader,
    ``codazzi-symmetry-g``, projects onto the leaves, and on the sphere's 1D
    latitude leaves the projector is exactly diag(0, 1), so that check reads
    exactly 0 from either build.  Each convergence entry is a point's label
    (the smallest grid spacing, or the radius) and its residual.

    The points run one at a time, and each builds its manifold once.  First
    the sweep's probe (the same example, parameters, scheme and checks on the
    coarse grid ``sweep_points`` names) records which check last reads each
    bundle field; a stage's reads follow the code path, not the grid, so
    every point drops each field after that reader.  A probe that raises an
    ExampleError or a FloatingPointError leaves the points unplanned, so
    the first point raises its own error, or none.  Every entry carries its
    row's gates at the finest point, whose ``singular`` gate says whether the
    run is judged as excised; a check not applicable there reports value 0
    and the verdict ``not-applicable``.
    Reports follow the order of ``fids``.
    """
    unknown = [f for f in fids if f not in FORMULAS]
    if unknown:
        raise ValueError(f"unknown formula ids: {', '.join(unknown)}")
    if not resolutions:
        raise ValueError("need at least one resolution")
    probe, points = sweep_points(spec, resolutions)
    plan = _probe_plan(probe, fids, scheme)
    per_res = []
    for point in points:
        name, grid, hyp, pairs, _ = _sweep_point(*point, fids, scheme, plan)
        per_res += pairs
    values_fine = per_res[-1][1]
    reports = []
    for fid in fids:
        value, detail, conv, verdict, tol = 0.0, {}, [], "not-applicable", 0.0
        if fid in values_fine:
            value, detail = values_fine[fid]
            conv = [(h, abs(v[fid][0])) for h, v in per_res if fid in v]
            verdict, tol, audit = _judge(FORMULAS[fid], float(value), conv, hyp["singular"][2])
            detail = {**detail, **audit}
        reports.append(ResidualReport(
            formula_id=fid, example=name, resolution=grid.sizes, scheme=scheme, value=float(value),
            tolerance=float(tol), verdict=verdict, gates={g: hyp[g] for g in FORMULAS[fid].gate_names},
            convergence=conv, detail=detail,
        ))
    return reports
