"""Field-level Randers extrinsic geometry.

Builds, over a :class:`~randers_foliations.manifold.FoliatedRandersManifold`,
the normal metric g = g_n, and the shape operator of the leaves with respect
to g along two independent routes:

* direct: Christoffel symbols of g computed numerically, A^g(u) = -nabla_u nu;
* comparison formula: A^g assembled from the base-metric quantities
  Abar, Zbar, the deformation tensor of beta_sharp and derivatives of c chat.

The same dual-route treatment is applied to the curvature vector Z of the
nu-curves and to the torsion operator C^sharp_nu (the g-dual of
C_nu(., ., Z)).  Everything needed by the integral verifier (delta, the
rank-one pieces U1, U2, a3 of the parallel-beta decomposition, the full shape
operator A = A^g + C^sharp_nu, eigenvalues, volume densities) is cached on
one bundle object, the only memo of the pipeline: each field is computed at
most once per bundle, and a fresh bundle is built for every sweep point.

Operators on the leaf tangent bundle are stored two ways: as coordinate
(d x d) matrix fields that kill N and map into the tangent distribution, and
as (m x m) matrices in a per-node a-orthonormal tangent frame (used for all
invariant extraction).  The frame is built by Gram-Schmidt from the
coordinate directions, dropping the one most parallel to N, so it is
deterministic; frames are never differentiated.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .manifold import (
    FoliatedRandersManifold,
    _masked_to_identity,
    covariant_vector_derivative,
    curvature_bar,
    deformation_tensor,
    extrinsic_bar,
    gradient,
    levi_civita,
)

__all__ = ["ExtrinsicBundle", "build_extrinsic", "g_metric_field"]


def g_metric_field(M: FoliatedRandersManifold) -> np.ndarray:
    """Normal metric g = g_n as a field, from the closed Randers form.

    g(u,v) = (1 + beta(n)) a(u,v) + beta(u) beta(v) - beta(n) n_flat(u) n_flat(v)
             + beta(u) n_flat(v) + beta(v) n_flat(u),
    evaluated with the a-unit F-normal n of each node.
    """
    n = M.n_field
    beta = M.beta
    n_flat = np.einsum("...ij,...j->...i", M.a, n)
    beta_n = np.einsum("...i,...i->...", beta, n)
    g = (
        (1.0 + beta_n)[..., None, None] * M.a
        + np.einsum("...i,...j->...ij", beta, beta)
        - beta_n[..., None, None] * np.einsum("...i,...j->...ij", n_flat, n_flat)
        + np.einsum("...i,...j->...ij", beta, n_flat)
        + np.einsum("...i,...j->...ij", n_flat, beta)
    )
    return g


class ExtrinsicBundle:
    """All extrinsic fields of one manifold at one derivative scheme."""

    def __init__(self, M: FoliatedRandersManifold, scheme: str = "spectral"):
        self.M = M
        self.scheme = scheme

    # -- scalars and normals --------------------------------------------------

    @cached_property
    def c(self):
        return self.M.c

    @cached_property
    def chat(self):
        return self.M.chat

    @cached_property
    def cc(self):
        """F(n) = c chat."""
        return self.M.c * self.M.chat

    @cached_property
    def n(self):
        return self.M.n_field

    @cached_property
    def nu(self):
        return self.M.nu_field

    @cached_property
    def bst(self):
        """Tangential part of the dual vector of beta."""
        return self.M.beta_sharp_top

    @cached_property
    def beta_N(self):
        return self.M.beta_N

    # -- metric level ----------------------------------------------------------

    @cached_property
    def g(self):
        return g_metric_field(self.M)

    @cached_property
    def gamma_a(self):
        return levi_civita(self.M, self.scheme)

    @cached_property
    def gamma_g(self):
        return levi_civita(self.M, self.scheme, metric=self.g)

    @cached_property
    def nabla_beta_sharp(self):
        """Covariant derivative of beta_sharp for the base metric."""
        return covariant_vector_derivative(self.M, self.M.beta_sharp, self.gamma_a, self.scheme)

    @cached_property
    def nabla_nu(self):
        """Covariant derivative of nu for the normal metric g."""
        return covariant_vector_derivative(self.M, self.nu, self.gamma_g, self.scheme)

    @cached_property
    def d_chat(self):
        """Coordinate differential of chat."""
        return gradient(self.M, self.chat, self.scheme)

    # -- base-metric extrinsic quantities ---------------------------------------

    @cached_property
    def bars(self):
        return extrinsic_bar(self.M, self.gamma_a, self.scheme)

    @cached_property
    def curvature(self):
        return curvature_bar(self.M, self.gamma_a, self.scheme)

    @cached_property
    def Abar(self):
        return self.bars.Abar

    @cached_property
    def Zbar(self):
        return self.bars.Zbar

    # -- tangent frames ----------------------------------------------------------

    @cached_property
    def frame(self):
        """a-orthonormal tangent frame E[..., :, a], a = 0..m-1.

        Deterministic construction: at each node the coordinate direction most
        parallel to N (largest |N_flat| component) is dropped, the remaining
        directions are taken in ascending axis order, projected off N, and
        Gram-Schmidt orthonormalised with respect to a.  Frames are used for
        pointwise invariant extraction only and are never differentiated.
        """
        M = self.M
        d, m = M.dim, M.m
        Nf = M.N_flat
        drop = np.argmax(np.abs(Nf), axis=-1)
        E = np.zeros(M.grid.sizes + (d, m))
        for k in range(d):
            sel = drop == k
            if not np.any(sel):
                continue
            cols = [i for i in range(d) if i != k]
            for a_idx, i in enumerate(cols):
                E[sel, :, a_idx] = np.eye(d)[i]
        N = M.N
        for a_idx in range(m):
            v = E[..., a_idx]
            v = v - np.einsum("...i,...i->...", Nf, v)[..., None] * N
            for b_idx in range(a_idx):
                u = E[..., b_idx]
                v = v - M.inner(u, v)[..., None] * u
            nrm = np.sqrt(M.inner(v, v))
            E[..., a_idx] = v / np.where(nrm > 1e-14, nrm, 1.0)[..., None]
        return E

    def vec_to_frame(self, v):
        """Components of a tangent vector field in the frame."""
        return np.einsum("...ia,...ij,...j->...a", self.frame, self.M.a, v)

    def op_to_frame(self, L):
        """m x m frame representation of an operator mapping T(leaf) to itself."""
        return np.einsum("...ia,...ij,...jk,...kb->...ab", self.frame, self.M.a, L, self.frame)

    def frame_to_vec(self, vf):
        return np.einsum("...ia,...a->...i", self.frame, vf)

    @cached_property
    def Abar_frame(self):
        return self.op_to_frame(self.Abar)

    @cached_property
    def b_frame(self):
        return self.vec_to_frame(self.bst)

    @cached_property
    def G_frame(self):
        """Leaf metric in the frame: c chat (I - b b^T)."""
        m = self.M.m
        eye = np.broadcast_to(np.eye(m), self.M.grid.sizes + (m, m))
        bb = np.einsum("...a,...b->...ab", self.b_frame, self.b_frame)
        return self.cc[..., None, None] * (eye - bb)

    @cached_property
    def G_frame_inv(self):
        """(c chat)^-1 (I + b b^T / c^2); Sherman-Morrison closed inverse."""
        m = self.M.m
        eye = np.broadcast_to(np.eye(m), self.M.grid.sizes + (m, m))
        bb = np.einsum("...a,...b->...ab", self.b_frame, self.b_frame)
        cc = np.where(self.cc > 1e-12, self.cc, 1.0)
        c2 = np.where(self.c > 1e-12, self.c**2, 1.0)
        return (eye + bb / c2[..., None, None]) / cc[..., None, None]

    # -- shape operator of g: two routes ---------------------------------------

    @cached_property
    def Ag_direct(self):
        """A^g(u) = -nabla_u nu from the numeric Levi-Civita connection of g."""
        op = -np.einsum("...im,...mj->...ij", self.nabla_nu, self.M.tangent_projector)
        # remove the g-normal component of the output: out -= nu g(nu, out)
        g_nu = np.einsum("...ij,...j->...i", self.g, self.nu)
        return op - np.einsum("...i,...k,...kj->...ij", self.nu, g_nu, op)

    @cached_property
    def U_general(self):
        """U = chat^-1 (nabla_n beta_sharp_top)^T - c Zbar."""
        return self.W_n / self.chat[..., None] - self.c[..., None] * self.Zbar

    @cached_property
    def delta(self):
        """delta = -(1/2) c^-1 chat^-2 n(c chat)."""
        dcc = gradient(self.M, self.cc, self.scheme)
        n_cc = np.einsum("...i,...i->...", self.n, dcc)
        return -0.5 * n_cc / (self.c * self.chat**2)

    @cached_property
    def def_beta_sharp(self):
        return deformation_tensor(self.M, self.M.beta_sharp, self.gamma_a, self.scheme)

    @cached_property
    def W_n(self):
        """(nabla_n beta_sharp_top)^T, the tangential n-derivative of bst (U reuses it)."""
        nab_bst = covariant_vector_derivative(self.M, self.bst, self.gamma_a, self.scheme)
        return self.M.project_tangent(np.einsum("...ik,...k->...i", nab_bst, self.n))

    @cached_property
    def Q_vec(self):
        """Q = Abar(bst) + c Zbar; the tangential part of -nabla_n N."""
        return self.Abar_bst + self.c[..., None] * self.Zbar

    @cached_property
    def Ag_formula(self):
        """Comparison formula for A^g in terms of base-metric quantities.

        c A^g = Abar + delta Id + chat^-1 (Def_{beta_sharp})^T
                + T (x) beta^T + S^flat (x) bst,
        T = (1/(2 chat)) W_n - (c/(2 chat)) Q
            + [<W_n, bst>/(2 c^2 chat) - <Q, bst>/(2 c chat)] bst,
        S = c^-2 Abar(bst) + (c^2 chat)^-1 (Def_{beta_sharp} bst)^T
            + (2 c^2 chat)^-1 W_n - (2 c chat)^-1 Q,
        with W_n = (nabla_n bst)^T, Q = Abar(bst) + c Zbar, and
        delta = -(1/2) c^-1 chat^-2 n(c chat).  Valid for every beta,
        including the degenerate locus bst = 0.

        This corrects the tilted case beta(N) != 0: the Koszul assembly gives
        <[u,n], n> = c <Q, u>, and the published display (kept verbatim in
        ``Ag_printed``) carries chat in place of that factor c, so the two
        coincide exactly when beta(N) = 0 and differ otherwise.
        """
        M = self.M
        P = M.tangent_projector
        a = M.a
        c, chat = self.c, self.chat
        c2 = np.where(c > 1e-12, c**2, 1.0)
        Abst = self.Abar_bst
        W_n, Q = self.W_n, self.Q_vec
        beta_tan = np.einsum("...ij,...j->...i", a, self.bst)
        def_t = np.einsum("...il,...lm,...mj->...ij", P, self.def_beta_sharp, P)
        def_bst = M.project_tangent(np.einsum("...ij,...j->...i", self.def_beta_sharp, self.bst))
        Wb = M.inner(W_n, self.bst)
        Qb = M.inner(Q, self.bst)
        T = (
            0.5 / chat[..., None] * W_n
            - (0.5 * c / chat)[..., None] * Q
            + (Wb / (2.0 * c2 * chat) - Qb / (2.0 * c * chat))[..., None] * self.bst
        )
        S = (
            Abst / c2[..., None]
            + def_bst / (c2 * chat)[..., None]
            + W_n / (2.0 * c2 * chat)[..., None]
            - Q / (2.0 * c * chat)[..., None]
        )
        cAg = (
            self.Abar
            + self.delta[..., None, None] * P
            + def_t / chat[..., None, None]
            + np.einsum("...i,...j->...ij", T, beta_tan)
            + np.einsum("...i,...j->...ij", self.bst, np.einsum("...ij,...j->...i", a, S))
        )
        op = cAg / self.c[..., None, None]
        return np.einsum("...il,...lm,...mj->...ij", P, op, P)

    @cached_property
    def Ag_printed(self):
        """The published comparison formula, transcribed verbatim.

        c A^g = Abar + delta Id + chat^-1 (Def_{beta_sharp})^T
                + (1/2)(U - Abar(bst)) (x) beta^T
                + (1/2) c^-2 [Abar(bst) - <Abar(bst), bst> bst
                              + 2 chat^-1 (Def_{beta_sharp} bst)^T
                              + U + beta(U) bst]^flat (x) bst,
        with U = chat^-1 (nabla_n bst)^T - c Zbar.  Agrees with the corrected
        ``Ag_formula`` exactly where beta(N) = 0.
        """
        M = self.M
        P = M.tangent_projector
        a = M.a
        Abst = self.Abar_bst
        U = self.U_general
        beta_tan = np.einsum("...ij,...j->...i", a, self.bst)
        def_t = np.einsum("...il,...lm,...mj->...ij", P, self.def_beta_sharp, P)
        def_bst = M.project_tangent(np.einsum("...ij,...j->...i", self.def_beta_sharp, self.bst))
        beta_U = M.inner(self.bst, U)
        V = (
            Abst
            - M.inner(Abst, self.bst)[..., None] * self.bst
            + 2.0 / self.chat[..., None] * def_bst
            + U
            + beta_U[..., None] * self.bst
        )
        rank1_a = 0.5 * np.einsum("...i,...j->...ij", U - Abst, beta_tan)
        V_flat = np.einsum("...ij,...j->...i", a, V)
        c2 = np.where(self.c > 1e-12, self.c**2, 1.0)
        rank1_b = 0.5 / c2[..., None, None] * np.einsum("...i,...j->...ij", self.bst, V_flat)
        cAg = (
            self.Abar
            + self.delta[..., None, None] * P
            + def_t / self.chat[..., None, None]
            + rank1_a
            + rank1_b
        )
        op = cAg / self.c[..., None, None]
        return np.einsum("...il,...lm,...mj->...ij", P, op, P)

    # -- curvature vector of the nu-curves: two routes ---------------------------

    @cached_property
    def Z_direct(self):
        """Z = nabla_nu nu from the numeric Levi-Civita connection of g."""
        return self.M.project_tangent(np.einsum("...ik,...k->...i", self.nabla_nu, self.nu))

    @cached_property
    def grad_chat(self):
        """Full a-gradient vector of chat."""
        return np.einsum("...ij,...j->...i", self.M.a_inv, self.d_chat)

    @cached_property
    def grad_chat_tan(self):
        return self.M.project_tangent(self.grad_chat)

    @cached_property
    def Z_formula(self):
        """Z = (c chat)^-1 Zbar - c^-1 chat^-2 grad^T chat
               + c^-3 chat^-1 beta(Zbar - chat^-1 grad^T chat) bst."""
        w = self.Zbar - self.grad_chat_tan / self.chat[..., None]
        beta_w = self.M.inner(self.bst, w)
        c, chat = self.c, self.chat
        Z = (
            self.Zbar / (c * chat)[..., None]
            - self.grad_chat_tan / (c * chat**2)[..., None]
            + (beta_w / (c**3 * chat))[..., None] * self.bst
        )
        return Z

    # -- torsion operator C^sharp: three routes ----------------------------------

    def _csharp_from_Z_frame(self, Z_coord):
        """g-dual of C_nu(., ., Z) in the frame, from the C-reducible torsion.

        C_nu(u, v, Z) = (c chat) C_n(u, v, Z) and, for tangent arguments,
        2 C_n(u, v, Z) = beta(u) h(v, Z) + beta(v) h(u, Z) + beta(Z) h(u, v)
        with h the angular form, which equals the leaf metric on tangent
        vectors.
        """
        b = self.b_frame
        Zf = self.vec_to_frame(Z_coord)
        bZ = np.einsum("...a,...a->...", b, Zf)
        m = self.M.m
        eye = np.broadcast_to(np.eye(m), self.M.grid.sizes + (m, m))
        h_ab = eye - np.einsum("...a,...b->...ab", b, b)      # leaf metric / (c chat)
        h_aZ = Zf - bZ[..., None] * b                          # h(e_a, Z) / (c chat)
        twoC = (
            np.einsum("...a,...b->...ab", b, h_aZ)
            + np.einsum("...b,...a->...ab", b, h_aZ)
            + bZ[..., None, None] * h_ab
        ) * self.cc[..., None, None]
        C_nu_form = 0.5 * self.cc[..., None, None] * twoC     # C_nu(e_a, e_b, Z)
        return np.einsum("...ab,...bc->...ac", self.G_frame_inv, C_nu_form)

    @cached_property
    def Csharp_direct(self):
        """Definitional route: torsion of F at n, paired with Z_direct, g-raised."""
        return self._csharp_from_Z_frame(self.Z_direct)

    @cached_property
    def Csharp_formula(self):
        """Comparison formula: Z eliminated through the Zbar/grad-chat expression.

        Uses only base-metric quantities.  This is the corrected closed form;
        the transcription shipped in ``Csharp_printed`` disagrees with the
        torsion definition (see the verifier's convergence report).
        """
        b = self.b_frame
        Zbf = self.vec_to_frame(self.Zbar)
        dchat_f = self.vec_to_frame(self.grad_chat_tan)
        beta_Zbar = np.einsum("...a,...a->...", b, Zbf)
        bst_chat = np.einsum("...a,...a->...", b, dchat_f)
        m = self.M.m
        eye = np.broadcast_to(np.eye(m), self.M.grid.sizes + (m, m))
        chat = self.chat
        c2 = np.where(self.c > 1e-12, self.c**2, 1.0)
        # 2 C_n(e_a, e_b, Z) with Z eliminated
        twoC = (
            np.einsum("...a,...b->...ab", Zbf, b)
            + np.einsum("...b,...a->...ab", Zbf, b)
            - (np.einsum("...a,...b->...ab", dchat_f, b) + np.einsum("...b,...a->...ab", dchat_f, b))
            / chat[..., None, None]
            + ((beta_Zbar - bst_chat / chat) / c2)[..., None, None]
            * (eye - np.einsum("...a,...b->...ab", b, b))
        )
        C_nu_form = 0.5 * self.cc[..., None, None] * twoC
        return np.einsum("...ab,...bc->...ac", self.G_frame_inv, C_nu_form)

    @cached_property
    def Csharp_printed(self):
        """The published closed form, transcribed verbatim (frame matrices).

        (c chat) Csharp_n = Cbar + c^-2 (beta o Cbar) (x) bst, with the
        displayed Cbar; converted to the nu-level with the displayed
        chat^3 scaling.  Kept for the comparison report.
        """
        b = self.b_frame
        Zbf = self.vec_to_frame(self.Zbar)
        c, chat, cc = self.c, self.chat, self.cc
        # full directional derivatives
        dc = gradient(self.M, c, self.scheme)
        dchat = self.d_chat
        grad_c_tan_f = self.vec_to_frame(
            self.M.project_tangent(np.einsum("...ij,...j->...i", self.M.a_inv, dc))
        )
        n_chat = np.einsum("...i,...i->...", self.n, dchat)
        bst_chat = np.einsum("...i,...i->...", self.bst, dchat)
        beta_Zbar = np.einsum("...a,...a->...", b, Zbf)
        m = self.M.m
        eye = np.broadcast_to(np.eye(m), self.M.grid.sizes + (m, m))
        bb = np.einsum("...a,...b->...ab", b, b)
        coef_id = ((chat - 2.0 / c) * bst_chat + (c - 1.0 / chat) * n_chat
                   + beta_Zbar * (cc - chat**2 + 2.0 * chat / c - 1.0)) / cc
        coef_bb = ((2.0 / c - 3.0 * chat) * bst_chat + (1.0 / chat - 3.0 * c) * n_chat
                   + beta_Zbar * (3.0 * chat**2 - 3.0 * cc - 2.0 * chat / c + 1.0)) / cc
        twoCbar = (
            np.einsum("...a,...b->...ab", Zbf, b)
            + np.einsum("...b,...a->...ab", Zbf, b)
            - (np.einsum("...a,...b->...ab", grad_c_tan_f, b)
               + np.einsum("...b,...a->...ab", grad_c_tan_f, b)) / chat[..., None, None]
            + coef_id[..., None, None] * eye
            + coef_bb[..., None, None] * bb
        )
        Cbar = 0.5 * twoCbar
        c2 = np.where(self.c > 1e-12, self.c**2, 1.0)
        csharp_n = (Cbar + np.einsum("...ab,...bc->...ac", bb, Cbar) / c2[..., None, None]) / cc[
            ..., None, None
        ]
        return csharp_n / chat[..., None, None] ** 3

    @cached_property
    def Csharp_n_direct_numeric(self):
        """g-dual of C_n(., ., nabla_n n) with nabla_n n taken numerically.

        Independent of the chain-rule reduction to Z; used to measure the
        scale factor between the n-level and nu-level torsion operators.
        """
        M = self.M
        nab_n = covariant_vector_derivative(M, self.n, self.gamma_g, self.scheme)
        w = np.einsum("...ik,...k->...i", nab_n, self.n)  # nabla_n n, not tangent
        # C_n(u, v, w) for tangent u, v but general w:
        # split w into tangent part and components along n
        # I_n and h_n handle general slots; use I/h decomposition directly
        b = self.b_frame
        m = M.m
        eye = np.broadcast_to(np.eye(m), M.grid.sizes + (m, m))
        # I_n(e_a) = (d+1)/2 beta(e_a); I_n(w) = (d+1)/(2 cc)(beta(w) - beta(n) <n, w>)
        d = M.dim
        beta_w = np.einsum("...i,...i->...", M.beta, w)
        n_w = M.inner(self.n, w)
        beta_n = self.cc - 1.0
        I_w = (d + 1) / (2.0 * self.cc) * (beta_w - beta_n * n_w)
        I_a = (d + 1) / 2.0 * b
        # h_n(e_a, e_b) = cc (delta - b b); h_n(e_a, w) = cc (<e_a, w> - <e_a,n><w,n>)
        w_f = self.vec_to_frame(w)  # tangential a-components <e_a, w>
        n_f_inner = -b              # <e_a, n> = -beta(e_a) on tangent frame
        h_aw = self.cc[..., None] * (w_f - n_f_inner * n_w[..., None])
        h_ab = self.cc[..., None, None] * (eye - np.einsum("...a,...b->...ab", b, b))
        C_form = (
            np.einsum("...a,...b->...ab", I_a, h_aw)
            + np.einsum("...b,...a->...ab", I_a, h_aw)
            + I_w[..., None, None] * h_ab
        ) / (d + 1)
        return np.einsum("...ab,...bc->...ac", self.G_frame_inv, C_form)

    # -- full shape operator and friends -----------------------------------------

    @cached_property
    def A_frame(self):
        """Full shape operator A = A^g + C^sharp_nu, frame representation."""
        return self.op_to_frame(self.Ag_direct) + self.Csharp_direct

    @cached_property
    def A_frame_gsym(self):
        """A symmetrised with respect to g (A is g-self-adjoint analytically)."""
        Ginv = self.G_frame_inv
        G = self.G_frame
        At = np.einsum("...ab,...cb,...cd->...ad", Ginv, self.A_frame, G)
        return 0.5 * (self.A_frame + At)

    @cached_property
    def principal_curvatures(self):
        """Eigenvalues of A per node, real by g-symmetrisation, ascending."""
        G = self.G_frame
        L = np.linalg.cholesky(_masked_to_identity(G, self.M))
        Li = np.linalg.inv(L)
        # for G = L L^T and g-self-adjoint A, L^T A L^-T is symmetric
        sym = np.einsum("...ba,...bc,...dc->...ad", L, self.A_frame_gsym, Li)
        sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
        return np.linalg.eigvalsh(sym)

    @cached_property
    def distortion_nu(self):
        """tau(nu) = ((d+1)/2) log[(c chat)/(1 - |beta_sharp|^2)]."""
        d = self.M.dim
        return (d + 1) / 2.0 * np.log(self.cc / (1.0 - self.M.beta_norm**2))

    @cached_property
    def distortion_det_route(self):
        """tau via determinants: log sqrt(det g) - log sigma_F."""
        d = self.M.dim
        sigma_f = (1.0 - self.M.beta_norm**2) ** ((d + 1) / 2.0) * self.M.sqrt_det_a
        act = self.M.active
        out = np.zeros(self.M.grid.sizes)
        out[act] = 0.5 * np.log(np.linalg.det(self.g)[act]) - np.log(sigma_f[act])
        return out

    # -- rank-one pieces of the parallel-beta decomposition -----------------------

    def perp_beta(self, X):
        """a-orthogonal projection off bst (identity where bst degenerates)."""
        b2 = 1.0 - self.c**2
        safe = np.where(b2 > 1e-12, b2, 1.0)
        coef = self.M.inner(X, self.bst) / safe
        out = X - coef[..., None] * self.bst
        return np.where((b2 > 1e-12)[..., None], out, X)

    @cached_property
    def Abar_bst(self):
        return np.einsum("...ij,...j->...i", self.Abar, self.bst)

    @cached_property
    def beta_Zbar(self):
        return self.M.inner(self.bst, self.Zbar)

    @cached_property
    def Abst_beta(self):
        """<Abar(bst), beta_sharp> = <Abar(bst), bst> (the output is tangent)."""
        return self.M.inner(self.Abar_bst, self.bst)

    @cached_property
    def U1(self):
        """(1/(2 c^2)) (Abar(bst) - c Zbar)^{perp beta}.

        Rank-one data of the parallel-beta decomposition of the corrected
        comparison formula: under nabla beta = 0,
        c A^g = Abar + delta Id + U1^flat (x) bst + U2 (x) beta^T
                + a3 beta^T (x) bst.
        """
        v = self.Abar_bst - self.c[..., None] * self.Zbar
        c2 = np.where(self.c > 1e-12, self.c**2, 1.0)
        return self.perp_beta(v) / (2.0 * c2)[..., None]

    @cached_property
    def U2(self):
        """-(1/2) (Abar(bst) + c Zbar)^{perp beta}."""
        return -0.5 * self.perp_beta(self.Q_vec)

    @cached_property
    def a3(self):
        """-beta(Zbar) / (c (1 - c^2)); weight of the beta^T (x) bst piece."""
        b2 = 1.0 - self.c**2
        safe = np.where(b2 > 1e-12, b2, 1.0)
        val = -self.beta_Zbar / (self.c * safe)
        return np.where(b2 > 1e-12, val, 0.0)

    @cached_property
    def U1_printed(self):
        """(1/(2 c chat)) (Abar(bst) + (c - 2 chat) Zbar)^{perp beta} (as published)."""
        v = self.Abar_bst + (self.c - 2.0 * self.chat)[..., None] * self.Zbar
        return self.perp_beta(v) / (2.0 * self.cc)[..., None]

    @cached_property
    def U2_printed(self):
        """((c - 2 chat)/(2 chat)) (Abar(bst) + c Zbar)^{perp beta} (as published)."""
        return ((self.c - 2.0 * self.chat) / (2.0 * self.chat))[..., None] * self.perp_beta(
            self.Q_vec
        )

    @cached_property
    def a3_printed(self):
        """Published weight of the beta^T (x) bst piece."""
        b2 = 1.0 - self.c**2
        safe = np.where(b2 > 1e-12, b2, 1.0)
        val = (self.c - 2.0 * self.chat) / (self.cc * safe) * self.beta_Zbar - (
            self.chat - self.c
        ) / (self.c**2 * self.chat * safe) * self.Abst_beta
        return np.where(b2 > 1e-12, val, 0.0)


    # -- export ------------------------------------------------------------------

    def dump(self, path: str, fmt: str = "npz") -> None:
        """Write the bundle's main fields in the grid dump format."""
        from .grid import dump_fields

        fields = {
            "c": self.c,
            "chat": self.chat,
            "n": self.n,
            "nu": self.nu,
            "g": self.g,
            "abar": self.Abar,
            "zbar": self.Zbar,
            "shape_g_direct": self.Ag_direct,
            "shape_g_formula": self.Ag_formula,
            "z_direct": self.Z_direct,
            "z_formula": self.Z_formula,
            "csharp_direct": self.Csharp_direct,
            "csharp_formula": self.Csharp_formula,
            "shape_full_frame": self.A_frame,
            "active": self.M.active.astype(float),
        }
        dump_fields(self.M.grid, fields, path, fmt)


def build_extrinsic(M: FoliatedRandersManifold, scheme: str = "spectral") -> ExtrinsicBundle:
    """A fresh bundle; its fields are computed on first access and kept with it."""
    return ExtrinsicBundle(M, scheme)
