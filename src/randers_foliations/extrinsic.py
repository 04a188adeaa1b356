"""Field-level Randers extrinsic geometry.

Builds, over a :class:`~randers_foliations.manifold.FoliatedRandersManifold`,
the normal metric g = g_n, and the shape operator of the leaves with respect
to g along two independent routes:

* direct: Christoffel symbols of g computed numerically, A^g(u) = -nabla_u nu;
* comparison formula: A^g assembled from the base-metric quantities
  Abar, Zbar, the deformation tensor of beta_sharp and derivatives of c chat.

The same dual-route treatment is applied to the curvature vector Z of the
nu-curves and to the torsion operator C^sharp_nu (the g-dual of
C_nu(., ., Z)).  Randers norms are C-reducible, so the torsion is one form,
``_torsion_n``, read at a third slot: the numeric Z, Z_formula, or nabla_n n
for the n-level scale check.  Everything needed by the integral verifier
(delta, the full shape operator A = A^g + C^sharp_nu, eigenvalues, volume
densities) is a memo entry of one bundle: the descriptor ``_field`` computes
it on its first read into the bundle's dict ``memo``, and a fresh bundle is
built for every sweep point.
The pointwise scalars and normals (c, chat, beta(N), n, nu and bst =
beta_sharp_top) are read from the manifold, which caches them itself, with
a_inv and the tangent projector; the grid caches its spacings.  Each of
the two Levi-Civita connections (of a and of g) is formed once, inside one
pass that takes every field its readers need from it, and is freed when the
pass returns: no held field has more than dim + 2 axes.  A pass returns its
outputs as a dict, and each output is its own memo entry.

A field lives only until its last reader.  The bundle notes which stage of a
sweep point (the hypotheses, then each check) last read each memo entry; a
later bundle given that plan pops each entry from ``memo`` as soon as that
stage ends.  The record follows the code path, not the grid, so a coarse probe
of the sweep gives the plan of every point.
Fields are computed on the manifold's own active set ``M.active``; the bundle
holds no judging mask, since ``verify`` passes each mask to the reductions.

Leaf operators and leaf vectors are frame arrays: (m x m) matrices and
m-vectors in a per-node a-orthonormal tangent frame F.  The frame is built by
Gram-Schmidt from the coordinate directions, dropping the one most parallel
to N, so it is deterministic; frames are never differentiated.  Coordinate
arrays remain only where a field is differentiated or comes out of a
derivative (Abar, Zbar, Z_direct, the nabla fields) and where a
coordinate sup-norm residual reads it; the beta-scalars beta(Zbar) and
<Abar(bst), bst> are frame contractions.  ``op_to_frame`` and
``vec_to_frame`` are the only maps between the two.  Since F is tangent and
a-orthonormal, F^T a P = F^T a and P F = F for the tangent projector P, so no
argument needs projecting first.
"""

from __future__ import annotations

import numpy as np

from .invariants import det, dot, inv, matvec, outer
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

__all__ = ["ExtrinsicBundle", "g_metric_field"]


def g_metric_field(M: FoliatedRandersManifold) -> np.ndarray:
    """Normal metric g = g_n as a field, from the closed Randers form.

    g(u,v) = (1 + beta(n)) a(u,v) + beta(u) beta(v) - beta(n) n_flat(u) n_flat(v)
             + beta(u) n_flat(v) + beta(v) n_flat(u),
    evaluated with the a-unit F-normal n of each node.
    """
    n = M.n_field
    beta = M.beta
    n_flat = matvec(M.a, n)
    beta_n = dot(beta, n)
    g = (
        (1.0 + beta_n)[..., None, None] * M.a
        + outer(beta, beta)
        - beta_n[..., None, None] * outer(n_flat, n_flat)
        + outer(beta, n_flat)
        + outer(n_flat, beta)
    )
    return g


class _field:
    """A memo entry, ``make(E)``, kept in ``E.memo`` from its first read until dropped.

    Given ``name``, ``make`` is a pass whose whole dict of entries is stored;
    the entry is its ``name``.  Every read is noted in ``E.last_reader``.
    """

    def __init__(self, make, name: str | None = None):
        self.make, self.name, self.of_pass = make, name or make.__name__, name is not None
        self.__doc__ = make.__doc__

    def __get__(self, E, owner=None):
        if E is None:
            return self
        E.last_reader[self.name] = E.stage
        if self.name not in E.memo:
            if self.of_pass:
                E.memo.update(self.make(E))
            else:
                E.memo[self.name] = self.make(E)
        return E.memo[self.name]


class ExtrinsicBundle:
    """All extrinsic fields of one manifold at one derivative scheme.

    The caller names the current stage (``stage``: "hyp" or a check id) and
    closes it with ``end_stage``.  Every read of a memo entry (a ``_field``,
    held in ``memo``) is noted in ``last_reader`` (field -> the last stage
    that read it or made it).  Given the ``plan`` of the sweep's probe (its
    ``last_reader``), ``end_stage`` pops each entry the plan says the closing
    stage read last; an entry read again after that is computed again.
    """

    def __init__(self, M: FoliatedRandersManifold, scheme: str = "spectral", plan: dict | None = None):
        self.M = M
        self.scheme = scheme
        self.plan = plan or {}
        self.stage: str | None = None
        self.memo: dict[str, object] = {}
        self.last_reader: dict[str, str | None] = {}

    def end_stage(self) -> None:
        """Close the current stage: note the entries it made, drop those it read last."""
        for name in self.memo:
            self.last_reader.setdefault(name, self.stage)
        for name, stage in self.plan.items():
            if stage == self.stage:
                self.memo.pop(name, None)

    # -- metric level ----------------------------------------------------------

    @_field
    def cc(self):
        """F(n) = c chat."""
        return self.M.c * self.M.chat

    @_field
    def c2(self):
        """c^2, guarded to 1 where c vanishes; a safe divisor."""
        return np.where(self.M.c > 1e-12, self.M.c**2, 1.0)

    @_field
    def bst_live(self):
        """Nodes where bst does not degenerate: |bst|^2 = 1 - c^2 > 1e-12."""
        return 1.0 - self.M.c**2 > 1e-12

    @_field
    def b2(self):
        """|bst|^2 = 1 - c^2, guarded to 1 where bst degenerates."""
        return np.where(self.bst_live, 1.0 - self.M.c**2, 1.0)

    @_field
    def g(self):
        return g_metric_field(self.M)

    @_field
    def d_c(self):
        """Coordinate differential of c."""
        return gradient(self.M, self.M.c, self.scheme)

    @_field
    def d_chat(self):
        """Coordinate differential of chat."""
        return gradient(self.M, self.M.chat, self.scheme)

    # -- the two connections: each formed once, inside the pass that reads it -----

    def _base_pass(self):
        """Every field read from the base connection Gamma_a, taken in one pass.

        Returns the outputs by memo entry, so each is dropped after its own
        last reader.  Gamma_a (d^3 numbers per node) is a local here and is
        freed on return.  The curvature fields are formed only where a
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
            "nabla_n_bst": matvec(covariant_vector_derivative(M, M.beta_sharp_top, gamma, scheme), M.n_field),
            "gamma_N": connection_along(gamma, M.N),
        }
        curvature = curvature_bar(M, gamma, scheme) if M.mask is None else (None,) * 3
        out.update(zip(("R_N", "ricci_N", "sup_riemann"), curvature))
        return out

    def _normal_pass(self):
        """Every field read from the connection Gamma_g of g, taken in one pass, by memo entry; Gamma_g is a local."""
        M, scheme = self.M, self.scheme
        gamma = levi_civita(M, scheme, metric=self.g)
        nabla_nu = covariant_vector_derivative(M, M.nu_field, gamma, scheme)
        Z = M.project_tangent(matvec(nabla_nu, M.nu_field))
        return {
            "nabla_nu": nabla_nu,
            "Z_direct": Z,
            "nabla_Z_direct": covariant_vector_derivative(M, Z, gamma, scheme),
            "nabla_n_n": matvec(covariant_vector_derivative(M, M.n_field, gamma, scheme), M.n_field),
        }

    # the passes' outputs, one memo entry each
    Abar = _field(_base_pass, "Abar")                      # kills N, maps into T(leaves)
    Zbar = _field(_base_pass, "Zbar")                      # tangent vector field
    nabla_beta_sharp = _field(_base_pass, "nabla_beta_sharp")
    nabla_Zbar = _field(_base_pass, "nabla_Zbar")
    nabla_n_bst = _field(_base_pass, "nabla_n_bst")        # nabla_n beta_sharp_top, a vector
    gamma_N = _field(_base_pass, "gamma_N")                # Gamma_a(N), a (d, d) field
    R_N = _field(_base_pass, "R_N")                        # R(., N) N; None when masked
    ricci_N = _field(_base_pass, "ricci_N")                # leaf trace of R_N; None when masked
    sup_riemann = _field(_base_pass, "sup_riemann")        # max |R^i_jkl|; None when masked
    nabla_nu = _field(_normal_pass, "nabla_nu")
    Z_direct = _field(_normal_pass, "Z_direct")            # nabla_nu nu, tangent part
    nabla_Z_direct = _field(_normal_pass, "nabla_Z_direct")# g-derivative of Z_direct
    nabla_n_n = _field(_normal_pass, "nabla_n_n")          # nabla_n n, a vector (not tangent)

    def nabla_N_Abar(self):
        """nabla_N Abar for the base metric, from the kept Gamma_a(N); not kept, it has one reader."""
        M = self.M
        return covariant_operator_derivative(M, self.Abar, M.N, self.gamma_N, self.scheme)

    # -- tangent frames ----------------------------------------------------------

    @_field
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
        drop = np.argmax(np.abs(M.N_flat), axis=-1)
        cols = np.arange(m) + (np.arange(m) >= drop[..., None])
        E = (np.arange(d)[:, None] == cols[..., None, :]).astype(float)
        for a_idx in range(m):
            v = M.project_tangent(E[..., a_idx])
            for b_idx in range(a_idx):
                u = E[..., b_idx]
                v = v - M.inner(u, v)[..., None] * u
            nrm = np.sqrt(M.inner(v, v))
            E[..., a_idx] = v / np.where(nrm > 1e-14, nrm, 1.0)[..., None]
        return E

    @_field
    def aF(self):
        """The a-lowered frame a F: aF^T v are the frame components of v."""
        return self.M.a @ self.frame

    def vec_to_frame(self, v):
        """Frame components aF^T v of a vector field; its N-part drops out."""
        return matvec(np.swapaxes(self.aF, -1, -2), v)

    def op_to_frame(self, L):
        """m x m frame matrix aF^T L F of an operator field (P L P has the same one)."""
        return np.swapaxes(self.aF, -1, -2) @ (L @ self.frame)

    @_field
    def Abar_frame(self):
        return self.op_to_frame(self.Abar)

    @_field
    def b_frame(self):
        return self.vec_to_frame(self.M.beta_sharp_top)

    @_field
    def Zbar_frame(self):
        return self.vec_to_frame(self.Zbar)

    @_field
    def Abst_frame(self):
        """Abar(bst) in the frame."""
        return matvec(self.Abar_frame, self.b_frame)

    @_field
    def Q_frame(self):
        """Q = Abar(bst) + c Zbar, the tangential part of -nabla_n N, in the frame."""
        return self.Abst_frame + self.M.c[..., None] * self.Zbar_frame

    @_field
    def G_frame(self):
        """Leaf metric in the frame: c chat (I - b b^T), the angular form h_n on the leaf."""
        return self.cc[..., None, None] * (np.eye(self.M.m) - outer(self.b_frame, self.b_frame))

    @_field
    def G_frame_inv(self):
        """(c chat)^-1 (I + b b^T / c^2); Sherman-Morrison closed inverse."""
        bb = outer(self.b_frame, self.b_frame)
        cc = np.where(self.cc > 1e-12, self.cc, 1.0)
        return (np.eye(self.M.m) + bb / self.c2[..., None, None]) / cc[..., None, None]

    # -- shape operator of g: two routes ---------------------------------------

    @_field
    def Ag_direct(self):
        """A^g(u) = -nabla_u nu from the numeric Levi-Civita connection of g (frame array).

        The g-normal component of the output is removed, out -= nu g(nu, out),
        before the frame map.
        """
        nu, Dnu = self.M.nu_field, self.nabla_nu
        g_nu = matvec(self.g, nu)
        return -self.op_to_frame(Dnu - outer(nu, matvec(np.swapaxes(Dnu, -1, -2), g_nu)))

    @_field
    def delta(self):
        """delta = -(1/2) c^-1 chat^-2 n(c chat)."""
        dcc = gradient(self.M, self.cc, self.scheme)
        n_cc = dot(self.M.n_field, dcc)
        return -0.5 * n_cc / (self.M.c * self.M.chat**2)

    @_field
    def Def_frame(self):
        """Tangential part of Def_{beta_sharp} in the frame."""
        return self.op_to_frame(deformation_tensor(self.M, self.nabla_beta_sharp))

    @_field
    def W_frame(self):
        """(nabla_n beta_sharp_top)^T in the frame."""
        return self.vec_to_frame(self.nabla_n_bst)

    def _Ag_assembled(self, x_beta, y_bst):
        """A^g = c^-1 (Abar + delta Id + chat^-1 (Def_{beta_sharp})^T + x_beta + y_bst), a frame array; not kept.

        The two comparison formulas share the head and differ in x_beta = X (x) beta^T and y_bst = Y^flat (x) bst.
        """
        return (self.Abar_frame + self.delta[..., None, None] * np.eye(self.M.m)
                + self.Def_frame / self.M.chat[..., None, None] + x_beta + y_bst) / self.M.c[..., None, None]

    @_field
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
            + matvec(self.Def_frame, b) / (c2 * chat)[..., None]
            + W / (2.0 * c2 * chat)[..., None]
            - Q / (2.0 * c * chat)[..., None]
        )
        return self._Ag_assembled(outer(T, b), outer(b, S))

    @_field
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
            - self.Abst_beta[..., None] * b
            + 2.0 / chat[..., None] * matvec(self.Def_frame, b)
            + U
            + dot(b, U)[..., None] * b
        )
        return self._Ag_assembled(0.5 * outer(U - Abst, b), 0.5 / self.c2[..., None, None] * outer(b, V))

    # -- curvature vector of the nu-curves: two routes ---------------------------

    @_field
    def Z_direct_frame(self):
        """Z_direct in the frame, shared by Csharp_direct and the z-comparison."""
        return self.vec_to_frame(self.Z_direct)

    @_field
    def dchat_frame(self):
        """Tangential a-gradient of chat, grad^T chat, in the frame."""
        return self.vec_to_frame(matvec(self.M.a_inv, self.d_chat))

    @_field
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

    # -- torsion operator C^sharp: three routes, one C-reducible form -----------

    def _torsion_n(self, w, beta_w, n_w):
        """g-dual of C_n(., ., w) in the frame for a third slot w of any direction; not kept.

        w is given by its frame components, beta(w) and <n, w>.  Randers norms
        are C-reducible: for tangent u, v,
        C_n(u, v, w) = (I(u) h(v, w) + I(v) h(u, w) + I(w) h(u, v)) / (d + 1),
        with I_n(e_a) = (d+1)/2 beta(e_a), I_n(w) = (d+1)/(2 c chat) (beta(w) - beta(n) <n, w>),
        beta(n) = c chat - 1, h_n(e_a, w) = c chat (<e_a, w> - <e_a, n><n, w>) and
        <e_a, n> = -beta(e_a).
        """
        b, cc = self.b_frame, self.cc
        h_aw = cc[..., None] * (w + b * n_w[..., None])
        I_w = (beta_w - (cc - 1.0) * n_w) / (2.0 * cc)        # I_n(w) / (d + 1)
        C_form = 0.5 * (outer(b, h_aw) + outer(h_aw, b)) + I_w[..., None, None] * self.G_frame
        return self.G_frame_inv @ C_form

    def _torsion_nu(self, Z):
        """g-dual of C_nu(., ., Z) = (c chat) C_n(., ., Z) for a leaf-tangent frame vector Z; not kept.

        For tangent Z, beta(Z) = <b, Z> and <n, Z> = -<b, Z>.
        """
        bZ = dot(self.b_frame, Z)
        return self.cc[..., None, None] * self._torsion_n(Z, bZ, -bZ)

    @_field
    def Csharp_direct(self):
        """Definitional route: the torsion at the numeric Z_direct."""
        return self._torsion_nu(self.Z_direct_frame)

    @_field
    def Csharp_formula(self):
        """Comparison formula: the torsion at Z_formula, so it uses only base-metric quantities.

        This is the corrected closed form; the transcription shipped in
        ``Csharp_printed`` disagrees with the torsion definition (see the
        verifier's convergence report).
        """
        return self._torsion_nu(self.Z_formula)

    @_field
    def Csharp_printed(self):
        """The published closed form, transcribed verbatim (frame matrices).

        (c chat) Csharp_n = Cbar + c^-2 (beta o Cbar) (x) bst, with the
        displayed Cbar; converted to the nu-level with the displayed
        chat^3 scaling.  Kept for the comparison report.
        """
        b, Zb = self.b_frame, self.Zbar_frame
        c, chat, cc = self.M.c, self.M.chat, self.cc
        grad_c_f = self.vec_to_frame(matvec(self.M.a_inv, self.d_c))
        n_chat = dot(self.M.n_field, self.d_chat)
        bst_chat = dot(b, self.dchat_frame)
        beta_Zbar = self.beta_Zbar
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

    @_field
    def Csharp_n_direct_numeric(self):
        """The n-level torsion at nabla_n n, taken numerically (not tangent).

        Independent of the chain-rule reduction to Z; used to measure the
        scale factor between the n-level and nu-level torsion operators.
        """
        M, w = self.M, self.nabla_n_n
        return self._torsion_n(self.vec_to_frame(w), dot(M.beta, w), M.inner(M.n_field, w))

    # -- full shape operator and friends -----------------------------------------

    @_field
    def A_frame(self):
        """Full shape operator A = A^g + C^sharp_nu, frame representation."""
        return self.Ag_direct + self.Csharp_direct

    @_field
    def A_frame_gsym(self):
        """A symmetrised with respect to g (A is g-self-adjoint analytically)."""
        At = self.G_frame_inv @ np.swapaxes(self.A_frame, -1, -2) @ self.G_frame
        return 0.5 * (self.A_frame + At)

    @_field
    def principal_curvatures(self):
        """Eigenvalues of A per node, real by g-symmetrisation, ascending."""
        L = np.linalg.cholesky(_masked_to_identity(self.G_frame, self.M))
        # for G = L L^T and g-self-adjoint A, L^T A L^-T is symmetric
        sym = np.swapaxes(L, -1, -2) @ self.A_frame_gsym @ np.swapaxes(inv(L), -1, -2)
        sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
        return np.linalg.eigvalsh(sym)

    @_field
    def distortion_nu(self):
        """tau(nu) = ((d+1)/2) log[(c chat)/(1 - |beta_sharp|^2)]."""
        d = self.M.dim
        return (d + 1) / 2.0 * np.log(self.cc / (1.0 - self.M.beta_norm**2))

    @_field
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

    @_field
    def beta_Zbar(self):
        """beta(Zbar) = <bst, Zbar>, from frame components."""
        return dot(self.b_frame, self.Zbar_frame)

    @_field
    def Abst_beta(self):
        """<Abar(bst), beta_sharp> = <Abar(bst), bst> (the output is tangent), from frame components."""
        return dot(self.Abst_frame, self.b_frame)

    def rank_one(self, printed: bool = False):
        """Rank-one data (U1, U2, a3) of the parallel-beta decomposition: two frame vectors and a weight.

        Under nabla beta = 0 the corrected comparison formula reads
        c A^g = Abar + delta Id + U1^flat (x) bst + U2 (x) beta^T + a3 beta^T (x) bst,
        U1 = (1/(2 c^2)) (Abar(bst) - c Zbar)^{perp beta},   U2 = -(1/2) (Abar(bst) + c Zbar)^{perp beta},
        a3 = -beta(Zbar) / (c (1 - c^2)).
        ``printed`` gives the published pieces, transcribed verbatim:
        U1 = (1/(2 c chat)) (Abar(bst) + (c - 2 chat) Zbar)^{perp beta},
        U2 = ((c - 2 chat)/(2 chat)) (Abar(bst) + c Zbar)^{perp beta},
        a3 = ((c - 2 chat) beta(Zbar) - (chat - c) <Abar(bst), bst> / c) / (c chat (1 - c^2)).
        a3 is 0 where bst degenerates.  Not memoised: only the Berwald rows read the pieces.
        """
        c, chat = self.M.c, self.M.chat
        if printed:
            v = self.Abst_frame + (c - 2.0 * chat)[..., None] * self.Zbar_frame
            U1 = self.perp_beta(v) / (2.0 * self.cc)[..., None]
            U2 = ((c - 2.0 * chat) / (2.0 * chat))[..., None] * self.perp_beta(self.Q_frame)
            a3 = ((c - 2.0 * chat) / (self.cc * self.b2) * self.beta_Zbar
                  - (chat - c) / (c**2 * chat * self.b2) * self.Abst_beta)
        else:
            v = self.Abst_frame - c[..., None] * self.Zbar_frame
            U1 = self.perp_beta(v) / (2.0 * self.c2)[..., None]
            U2 = -0.5 * self.perp_beta(self.Q_frame)
            a3 = -self.beta_Zbar / (c * self.b2)
        return U1, U2, np.where(self.bst_live, a3, 0.0)

