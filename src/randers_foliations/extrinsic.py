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
one bundle object, the memo of the derived fields: each is computed at most
once per bundle, and a fresh bundle is built for every sweep point.  The
pointwise scalars and normals (c, chat, beta(N), n, nu and bst =
beta_sharp_top) are read from the manifold, which caches them itself, with
a_inv and the tangent projector; the grid caches its spacings.  Each of
the two Levi-Civita connections (of a and of g) is formed once, inside one
pass that takes every field its readers need from it, and is freed when the
pass returns: no held field has more than dim + 2 axes.  Each pass output is
its own memo entry.

A field lives only until its last reader.  The bundle notes which stage of a
sweep point (the hypotheses, then each check) last read each memo entry; a
later bundle given that plan drops each entry as soon as that stage ends.
Fields are computed on the manifold's own active set ``M.active``; the bundle
holds no judging mask, since ``verify`` passes each mask to the reductions.

Leaf operators and leaf vectors are frame arrays: (m x m) matrices and
m-vectors in a per-node a-orthonormal tangent frame F.  The frame is built by
Gram-Schmidt from the coordinate directions, dropping the one most parallel
to N, so it is deterministic; frames are never differentiated.  Coordinate
arrays remain only where a field is differentiated or comes out of a
derivative (Abar, Zbar, Z_direct, the nabla fields) and where a
coordinate sup-norm residual reads it.  ``op_to_frame`` and ``vec_to_frame``
are the only maps between the two.  Since F is tangent and a-orthonormal,
F^T a P = F^T a and P F = F for the tangent projector P, so no argument needs
projecting first.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .invariants import det, dot, outer
from .manifold import (
    FoliatedRandersManifold,
    _masked_to_identity,
    connection_along,
    covariant_operator_derivative,
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


def _matvec(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,...b->...a", L, v)


def _pass_field(run_pass, name: str) -> cached_property:
    """The memo entry ``name``, which ``run_pass`` stores together with its other outputs."""

    def field(self):
        return run_pass(self)[name]

    field.__name__ = name
    return cached_property(field)


class ExtrinsicBundle:
    """All extrinsic fields of one manifold at one derivative scheme.

    The caller names the current stage (``stage``: "hyp" or a check id) and
    closes it with ``end_stage``.  Every read of a memo entry is noted in
    ``last_reader`` (field -> the last stage that read it or made it).  Given
    the ``plan`` of an earlier bundle (its ``last_reader``), ``end_stage``
    drops each entry the plan says the closing stage read last; an entry read
    again after that is computed again.
    """

    def __init__(self, M: FoliatedRandersManifold, scheme: str = "spectral", plan: dict | None = None):
        self.M = M
        self.scheme = scheme
        self.plan = plan or {}
        self.stage: str | None = None
        self.last_reader: dict[str, str | None] = {}

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name in _FIELDS:
            self.last_reader[name] = self.stage
        return value

    def end_stage(self) -> None:
        """Close the current stage: note the entries it made, drop those it read last."""
        memo = vars(self)
        for name in _FIELDS.intersection(memo):
            self.last_reader.setdefault(name, self.stage)
        for name, stage in self.plan.items():
            if stage == self.stage:
                memo.pop(name, None)

    # -- metric level ----------------------------------------------------------

    @cached_property
    def cc(self):
        """F(n) = c chat."""
        return self.M.c * self.M.chat

    @cached_property
    def c2(self):
        """c^2, guarded to 1 where c vanishes; a safe divisor."""
        return np.where(self.M.c > 1e-12, self.M.c**2, 1.0)

    @cached_property
    def bst_live(self):
        """Nodes where bst does not degenerate: |bst|^2 = 1 - c^2 > 1e-12."""
        return 1.0 - self.M.c**2 > 1e-12

    @cached_property
    def b2(self):
        """|bst|^2 = 1 - c^2, guarded to 1 where bst degenerates."""
        return np.where(self.bst_live, 1.0 - self.M.c**2, 1.0)

    @cached_property
    def g(self):
        return g_metric_field(self.M)

    @cached_property
    def d_chat(self):
        """Coordinate differential of chat."""
        return gradient(self.M, self.M.chat, self.scheme)

    # -- the two connections: each formed once, inside the pass that reads it -----

    def _base_pass(self):
        """Every field read from the base connection Gamma_a, taken in one pass.

        Each output is stored as its own memo entry, so each is dropped after
        its own last reader.  Gamma_a (d^3 numbers per node) is a local here
        and is freed on return.  The curvature fields are formed only where a
        check can read them (unmasked) and are None elsewhere.
        """
        M, scheme = self.M, self.scheme
        gamma = levi_civita(M, scheme)
        Abar, Zbar = extrinsic_bar(M, gamma, scheme)
        out = {
            "Abar": Abar,
            "Zbar": Zbar,
            "nabla_beta_sharp": covariant_vector_derivative(M, M.beta_sharp, gamma, scheme),
            "nabla_Zbar": covariant_vector_derivative(M, Zbar, gamma, scheme),
            "nabla_n_bst": _matvec(
                covariant_vector_derivative(M, M.beta_sharp_top, gamma, scheme), M.n_field
            ),
            "gamma_N": connection_along(gamma, M.N),
        }
        curvature = curvature_bar(M, gamma, scheme) if M.mask is None else (None,) * 3
        out.update(zip(("R_N", "ricci_N", "sup_riemann"), curvature))
        vars(self).update(out)
        return out

    def _normal_pass(self):
        """Every field read from the connection Gamma_g of g, taken in one pass; Gamma_g is a local."""
        M, scheme = self.M, self.scheme
        gamma = levi_civita(M, scheme, metric=self.g)
        nabla_nu = covariant_vector_derivative(M, M.nu_field, gamma, scheme)
        Z = M.project_tangent(_matvec(nabla_nu, M.nu_field))
        out = {
            "nabla_nu": nabla_nu,
            "Z_direct": Z,
            "nabla_Z_direct": covariant_vector_derivative(M, Z, gamma, scheme),
            "nabla_n_n": _matvec(covariant_vector_derivative(M, M.n_field, gamma, scheme), M.n_field),
        }
        vars(self).update(out)
        return out

    # the passes' outputs, one memo entry each
    Abar = _pass_field(_base_pass, "Abar")                          # kills N, maps into T(leaves)
    Zbar = _pass_field(_base_pass, "Zbar")                          # tangent vector field
    nabla_beta_sharp = _pass_field(_base_pass, "nabla_beta_sharp")
    nabla_Zbar = _pass_field(_base_pass, "nabla_Zbar")
    nabla_n_bst = _pass_field(_base_pass, "nabla_n_bst")            # nabla_n beta_sharp_top, a vector
    gamma_N = _pass_field(_base_pass, "gamma_N")                    # Gamma_a(N), a (d, d) field
    R_N = _pass_field(_base_pass, "R_N")                            # R(., N) N; None when masked
    ricci_N = _pass_field(_base_pass, "ricci_N")                    # leaf trace of R_N; None when masked
    sup_riemann = _pass_field(_base_pass, "sup_riemann")            # max |R^i_jkl|; None when masked
    nabla_nu = _pass_field(_normal_pass, "nabla_nu")
    Z_direct = _pass_field(_normal_pass, "Z_direct")                # nabla_nu nu, tangent part
    nabla_Z_direct = _pass_field(_normal_pass, "nabla_Z_direct")    # g-derivative of Z_direct
    nabla_n_n = _pass_field(_normal_pass, "nabla_n_n")              # nabla_n n, a vector (not tangent)

    def nabla_N_Abar(self):
        """nabla_N Abar for the base metric, from the kept Gamma_a(N); not kept, it has one reader."""
        M = self.M
        return covariant_operator_derivative(M, self.Abar, M.N, self.gamma_N, self.scheme)

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

    @cached_property
    def aF(self):
        """The a-lowered frame a F: aF^T v are the frame components of v."""
        return self.M.a @ self.frame

    def vec_to_frame(self, v):
        """Frame components aF^T v of a vector field; its N-part drops out."""
        return (v[..., None, :] @ self.aF)[..., 0, :]

    def op_to_frame(self, L):
        """m x m frame matrix aF^T L F of an operator field (P L P has the same one)."""
        return np.swapaxes(self.aF, -1, -2) @ (L @ self.frame)

    @cached_property
    def Abar_frame(self):
        return self.op_to_frame(self.Abar)

    @cached_property
    def b_frame(self):
        return self.vec_to_frame(self.M.beta_sharp_top)

    @cached_property
    def Zbar_frame(self):
        return self.vec_to_frame(self.Zbar)

    @cached_property
    def Abst_frame(self):
        """Abar(bst) in the frame."""
        return _matvec(self.Abar_frame, self.b_frame)

    @cached_property
    def Q_frame(self):
        """Q = Abar(bst) + c Zbar, the tangential part of -nabla_n N, in the frame."""
        return self.Abst_frame + self.M.c[..., None] * self.Zbar_frame

    @cached_property
    def h_frame(self):
        """Angular form on the leaf over c chat: I - b b^T."""
        return np.eye(self.M.m) - outer(self.b_frame, self.b_frame)

    @cached_property
    def G_frame(self):
        """Leaf metric in the frame: c chat (I - b b^T)."""
        return self.cc[..., None, None] * self.h_frame

    @cached_property
    def G_frame_inv(self):
        """(c chat)^-1 (I + b b^T / c^2); Sherman-Morrison closed inverse."""
        bb = outer(self.b_frame, self.b_frame)
        cc = np.where(self.cc > 1e-12, self.cc, 1.0)
        return (np.eye(self.M.m) + bb / self.c2[..., None, None]) / cc[..., None, None]

    # -- shape operator of g: two routes ---------------------------------------

    @cached_property
    def Ag_direct(self):
        """A^g(u) = -nabla_u nu from the numeric Levi-Civita connection of g (frame array).

        The g-normal component of the output is removed, out -= nu g(nu, out),
        before the frame map.
        """
        nu, Dnu = self.M.nu_field, self.nabla_nu
        g_nu = np.einsum("...ij,...j->...i", self.g, nu)
        return -self.op_to_frame(Dnu - outer(nu, (g_nu[..., None, :] @ Dnu)[..., 0, :]))

    @cached_property
    def delta(self):
        """delta = -(1/2) c^-1 chat^-2 n(c chat)."""
        dcc = gradient(self.M, self.cc, self.scheme)
        n_cc = np.einsum("...i,...i->...", self.M.n_field, dcc)
        return -0.5 * n_cc / (self.M.c * self.M.chat**2)

    @cached_property
    def Def_frame(self):
        """Tangential part of Def_{beta_sharp} in the frame."""
        return self.op_to_frame(deformation_tensor(self.M, self.nabla_beta_sharp))

    @cached_property
    def W_frame(self):
        """(nabla_n beta_sharp_top)^T in the frame."""
        return self.vec_to_frame(self.nabla_n_bst)

    @cached_property
    def Ag_formula(self):
        """Comparison formula for A^g in terms of base-metric quantities (frame array).

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
        c, chat, c2 = self.M.c, self.M.chat, self.c2
        b, W, Q = self.b_frame, self.W_frame, self.Q_frame
        T = (
            0.5 / chat[..., None] * W
            - (0.5 * c / chat)[..., None] * Q
            + (dot(W, b) / (2.0 * c2 * chat) - dot(Q, b) / (2.0 * c * chat))[..., None] * b
        )
        S = (
            self.Abst_frame / c2[..., None]
            + _matvec(self.Def_frame, b) / (c2 * chat)[..., None]
            + W / (2.0 * c2 * chat)[..., None]
            - Q / (2.0 * c * chat)[..., None]
        )
        cAg = (
            self.Abar_frame
            + self.delta[..., None, None] * np.eye(self.M.m)
            + self.Def_frame / chat[..., None, None]
            + outer(T, b)
            + outer(b, S)
        )
        return cAg / c[..., None, None]

    @cached_property
    def Ag_printed(self):
        """The published comparison formula, transcribed verbatim (frame array).

        c A^g = Abar + delta Id + chat^-1 (Def_{beta_sharp})^T
                + (1/2)(U - Abar(bst)) (x) beta^T
                + (1/2) c^-2 [Abar(bst) - <Abar(bst), bst> bst
                              + 2 chat^-1 (Def_{beta_sharp} bst)^T
                              + U + beta(U) bst]^flat (x) bst,
        with U = chat^-1 (nabla_n bst)^T - c Zbar.  Agrees with the corrected
        ``Ag_formula`` exactly where beta(N) = 0.
        """
        c, chat = self.M.c, self.M.chat
        b, Abst = self.b_frame, self.Abst_frame
        U = self.W_frame / chat[..., None] - c[..., None] * self.Zbar_frame
        V = (
            Abst
            - dot(Abst, b)[..., None] * b
            + 2.0 / chat[..., None] * _matvec(self.Def_frame, b)
            + U
            + dot(b, U)[..., None] * b
        )
        cAg = (
            self.Abar_frame
            + self.delta[..., None, None] * np.eye(self.M.m)
            + self.Def_frame / chat[..., None, None]
            + 0.5 * outer(U - Abst, b)
            + 0.5 / self.c2[..., None, None] * outer(b, V)
        )
        return cAg / c[..., None, None]

    # -- curvature vector of the nu-curves: two routes ---------------------------

    @cached_property
    def Z_direct_frame(self):
        """Z_direct in the frame, shared by Csharp_direct and the z-comparison."""
        return self.vec_to_frame(self.Z_direct)

    @cached_property
    def dchat_frame(self):
        """Tangential a-gradient of chat, grad^T chat, in the frame."""
        return self.vec_to_frame(np.einsum("...ij,...j->...i", self.M.a_inv, self.d_chat))

    @cached_property
    def Z_formula(self):
        """Z = (c chat)^-1 Zbar - c^-1 chat^-2 grad^T chat
               + c^-3 chat^-1 beta(Zbar - chat^-1 grad^T chat) bst  (frame array)."""
        b, Zb, dch = self.b_frame, self.Zbar_frame, self.dchat_frame
        c, chat = self.M.c, self.M.chat
        beta_w = dot(b, Zb - dch / chat[..., None])
        return (
            Zb / (c * chat)[..., None]
            - dch / (c * chat**2)[..., None]
            + (beta_w / (c**3 * chat))[..., None] * b
        )

    # -- torsion operator C^sharp: three routes ----------------------------------

    def _csharp_from_Z_frame(self, Zf):
        """g-dual of C_nu(., ., Z) in the frame, from the C-reducible torsion.

        C_nu(u, v, Z) = (c chat) C_n(u, v, Z) and, for tangent arguments,
        2 C_n(u, v, Z) = beta(u) h(v, Z) + beta(v) h(u, Z) + beta(Z) h(u, v)
        with h the angular form, which equals the leaf metric on tangent
        vectors.
        """
        b = self.b_frame
        cc = self.cc[..., None, None]
        bZ = dot(b, Zf)
        h_aZ = Zf - bZ[..., None] * b                          # h(e_a, Z) / (c chat)
        twoC = (outer(b, h_aZ) + outer(h_aZ, b) + bZ[..., None, None] * self.h_frame) * cc
        return self.G_frame_inv @ (0.5 * cc * twoC)           # raised C_nu(e_a, e_b, Z)

    @cached_property
    def Csharp_direct(self):
        """Definitional route: torsion of F at n, paired with Z_direct, g-raised."""
        return self._csharp_from_Z_frame(self.Z_direct_frame)

    @cached_property
    def Csharp_formula(self):
        """Comparison formula: Z eliminated through the Zbar/grad-chat expression.

        Uses only base-metric quantities.  This is the corrected closed form;
        the transcription shipped in ``Csharp_printed`` disagrees with the
        torsion definition (see the verifier's convergence report).
        """
        b, Zb, dch = self.b_frame, self.Zbar_frame, self.dchat_frame
        chat, c2 = self.M.chat, self.c2
        # 2 C_n(e_a, e_b, Z) with Z eliminated
        twoC = (
            outer(Zb, b)
            + outer(b, Zb)
            - (outer(dch, b) + outer(b, dch)) / chat[..., None, None]
            + ((dot(b, Zb) - dot(b, dch) / chat) / c2)[..., None, None] * self.h_frame
        )
        return self.G_frame_inv @ (0.5 * self.cc[..., None, None] * twoC)

    @cached_property
    def Csharp_printed(self):
        """The published closed form, transcribed verbatim (frame matrices).

        (c chat) Csharp_n = Cbar + c^-2 (beta o Cbar) (x) bst, with the
        displayed Cbar; converted to the nu-level with the displayed
        chat^3 scaling.  Kept for the comparison report.
        """
        b, Zb = self.b_frame, self.Zbar_frame
        c, chat, cc = self.M.c, self.M.chat, self.cc
        dc = gradient(self.M, c, self.scheme)
        grad_c_f = self.vec_to_frame(np.einsum("...ij,...j->...i", self.M.a_inv, dc))
        n_chat = np.einsum("...i,...i->...", self.M.n_field, self.d_chat)
        bst_chat = dot(b, self.dchat_frame)
        beta_Zbar = dot(b, Zb)
        bb = outer(b, b)
        coef_id = ((chat - 2.0 / c) * bst_chat + (c - 1.0 / chat) * n_chat
                   + beta_Zbar * (cc - chat**2 + 2.0 * chat / c - 1.0)) / cc
        coef_bb = ((2.0 / c - 3.0 * chat) * bst_chat + (1.0 / chat - 3.0 * c) * n_chat
                   + beta_Zbar * (3.0 * chat**2 - 3.0 * cc - 2.0 * chat / c + 1.0)) / cc
        Cbar = 0.5 * (
            outer(Zb, b)
            + outer(b, Zb)
            - (outer(grad_c_f, b) + outer(b, grad_c_f)) / chat[..., None, None]
            + coef_id[..., None, None] * np.eye(self.M.m)
            + coef_bb[..., None, None] * bb
        )
        csharp_n = (Cbar + bb @ Cbar / self.c2[..., None, None]) / cc[..., None, None]
        return csharp_n / chat[..., None, None] ** 3

    @cached_property
    def Csharp_n_direct_numeric(self):
        """g-dual of C_n(., ., nabla_n n) with nabla_n n taken numerically.

        Independent of the chain-rule reduction to Z; used to measure the
        scale factor between the n-level and nu-level torsion operators.
        C_n(u, v, w) = (I(u) h(v, w) + I(v) h(u, w) + I(w) h(u, v)) / (d + 1)
        for tangent u, v and a general slot w.
        """
        M = self.M
        w = self.nabla_n_n  # nabla_n n, not tangent
        b, d, cc = self.b_frame, M.dim, self.cc
        n_w = M.inner(M.n_field, w)
        # I_n(e_a) = (d+1)/2 beta(e_a); I_n(w) = (d+1)/(2 cc)(beta(w) - beta(n) <n, w>)
        beta_w = np.einsum("...i,...i->...", M.beta, w)
        I_w = (d + 1) / (2.0 * cc) * (beta_w - (cc - 1.0) * n_w)
        I_a = (d + 1) / 2.0 * b
        # h_n(e_a, w) = cc (<e_a, w> - <e_a, n><w, n>), with <e_a, n> = -beta(e_a)
        h_aw = cc[..., None] * (self.vec_to_frame(w) + b * n_w[..., None])
        C_form = (outer(I_a, h_aw) + outer(h_aw, I_a) + I_w[..., None, None] * self.G_frame) / (d + 1)
        return self.G_frame_inv @ C_form

    # -- full shape operator and friends -----------------------------------------

    @cached_property
    def A_frame(self):
        """Full shape operator A = A^g + C^sharp_nu, frame representation."""
        return self.Ag_direct + self.Csharp_direct

    @cached_property
    def A_frame_gsym(self):
        """A symmetrised with respect to g (A is g-self-adjoint analytically)."""
        At = self.G_frame_inv @ np.swapaxes(self.A_frame, -1, -2) @ self.G_frame
        return 0.5 * (self.A_frame + At)

    @cached_property
    def principal_curvatures(self):
        """Eigenvalues of A per node, real by g-symmetrisation, ascending."""
        L = np.linalg.cholesky(_masked_to_identity(self.G_frame, self.M))
        # for G = L L^T and g-self-adjoint A, L^T A L^-T is symmetric
        sym = np.swapaxes(L, -1, -2) @ self.A_frame_gsym @ np.swapaxes(np.linalg.inv(L), -1, -2)
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
        out[act] = 0.5 * np.log(det(self.g)[act]) - np.log(sigma_f[act])
        return out

    # -- rank-one pieces of the parallel-beta decomposition -----------------------

    def perp_beta(self, X):
        """Frame vector X with its bst component removed (identity where bst degenerates)."""
        b = self.b_frame
        out = X - (dot(X, b) / self.b2)[..., None] * b
        return np.where(self.bst_live[..., None], out, X)

    @cached_property
    def Abar_bst(self):
        return np.einsum("...ij,...j->...i", self.Abar, self.M.beta_sharp_top)

    @cached_property
    def beta_Zbar(self):
        return self.M.inner(self.M.beta_sharp_top, self.Zbar)

    @cached_property
    def Abst_beta(self):
        """<Abar(bst), beta_sharp> = <Abar(bst), bst> (the output is tangent)."""
        return self.M.inner(self.Abar_bst, self.M.beta_sharp_top)

    @cached_property
    def U1(self):
        """(1/(2 c^2)) (Abar(bst) - c Zbar)^{perp beta}, frame vector.

        Rank-one data of the parallel-beta decomposition of the corrected
        comparison formula: under nabla beta = 0,
        c A^g = Abar + delta Id + U1^flat (x) bst + U2 (x) beta^T
                + a3 beta^T (x) bst.
        """
        v = self.Abst_frame - self.M.c[..., None] * self.Zbar_frame
        return self.perp_beta(v) / (2.0 * self.c2)[..., None]

    @cached_property
    def U2(self):
        """-(1/2) (Abar(bst) + c Zbar)^{perp beta}, frame vector."""
        return -0.5 * self.perp_beta(self.Q_frame)

    @cached_property
    def a3(self):
        """-beta(Zbar) / (c (1 - c^2)); weight of the beta^T (x) bst piece."""
        val = -self.beta_Zbar / (self.M.c * self.b2)
        return np.where(self.bst_live, val, 0.0)

    @cached_property
    def U1_printed(self):
        """(1/(2 c chat)) (Abar(bst) + (c - 2 chat) Zbar)^{perp beta} (as published), frame vector."""
        v = self.Abst_frame + (self.M.c - 2.0 * self.M.chat)[..., None] * self.Zbar_frame
        return self.perp_beta(v) / (2.0 * self.cc)[..., None]

    @cached_property
    def U2_printed(self):
        """((c - 2 chat)/(2 chat)) (Abar(bst) + c Zbar)^{perp beta} (as published), frame vector."""
        return ((self.M.c - 2.0 * self.M.chat) / (2.0 * self.M.chat))[..., None] * self.perp_beta(
            self.Q_frame
        )

    @cached_property
    def a3_printed(self):
        """Published weight of the beta^T (x) bst piece."""
        val = (self.M.c - 2.0 * self.M.chat) / (self.cc * self.b2) * self.beta_Zbar - (
            self.M.chat - self.M.c
        ) / (self.M.c**2 * self.M.chat * self.b2) * self.Abst_beta
        return np.where(self.bst_live, val, 0.0)


# the memo entries: every field a bundle computes at most once and may drop
_FIELDS = frozenset(
    name for name, attr in vars(ExtrinsicBundle).items() if isinstance(attr, cached_property)
)


def build_extrinsic(
    M: FoliatedRandersManifold, scheme: str = "spectral", plan: dict | None = None
) -> ExtrinsicBundle:
    """A fresh bundle; its fields are computed on first access and kept until ``plan`` drops them."""
    return ExtrinsicBundle(M, scheme, plan)
