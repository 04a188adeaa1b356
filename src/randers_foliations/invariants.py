"""Batched matrix invariants for operator fields.

Frame representations of leaf operators are arrays of shape (..., m, m) and
those of leaf vectors arrays of shape (..., m).  Every nodewise product, trace
and inverse, of frame and coordinate fields alike, is one of ``dot``, ``matvec``
(v A is matvec(A^T, v)), ``quad``, ``outer``, ``trace`` and ``inv``; only
matrix-matrix products stay ``@``.  One Faddeev-LeVerrier loop gives sigma and
the Newton transformation T together; it takes a tuple of matrices and a
multi-index.  The batched ``sigma_k`` and ``newton_transform_batched`` pass it
one matrix, and ``matinv.sigma_multi`` a tuple; ``newton_chain`` gives rank-one
updates of sigma_k.  No nodewise sigma_lambda is needed: a sum
sum_{j>=1} sigma_(k-j,j)(X, Y) is sigma_k(X + Y) - sigma_k(X).

Grids are 2- or 3-dimensional, so every metric field is a stack of d x d
matrices with d <= 3.  ``det``, ``inv`` and ``is_spd`` evaluate such stacks
elementwise from their cofactors: a few whole-array products, where a batched
LAPACK routine would pay its per-matrix overhead at every node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "det",
    "inv",
    "is_spd",
    "dot",
    "matvec",
    "quad",
    "outer",
    "trace",
    "sigma_k",
    "newton_transform_batched",
    "newton_chain",
]


def _order(A: np.ndarray) -> int:
    d = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != d or not 1 <= d <= 3:
        raise ValueError(f"expected a stack of d x d matrices with d <= 3, got shape {A.shape}")
    return d


def _cofactor(A: np.ndarray, i: int, j: int) -> np.ndarray:
    """Cofactor C_ij of each d x d matrix, d <= 3."""
    d = A.shape[-1]
    if d == 1:
        return np.ones(A.shape[:-2])
    if d == 2:
        c = A[..., 1 - i, 1 - j]
        return c if i == j else -c
    # the cyclic successors of i and j carry the sign (-1)^(i+j)
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return A[..., i1, j1] * A[..., i2, j2] - A[..., i1, j2] * A[..., i2, j1]


def det(A: np.ndarray) -> np.ndarray:
    """Nodewise determinant of a stack of d x d matrices, d <= 3: first-row cofactor expansion."""
    d = _order(A)
    out = A[..., 0, 0] * _cofactor(A, 0, 0)
    for j in range(1, d):
        out += A[..., 0, j] * _cofactor(A, 0, j)
    return out


def inv(A: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
    """Nodewise inverse of a stack of d x d matrices, d <= 3: adjugate over determinant.

    ``D`` is ``det(A)`` when the caller already has it.
    """
    d = _order(A)
    adj = np.empty(A.shape)
    for i in range(d):
        for j in range(d):
            adj[..., j, i] = _cofactor(A, i, j)
    adj /= (det(A) if D is None else D)[..., None, None]
    return adj


def is_spd(A: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
    """Nodewise positive definiteness of symmetric d x d matrices, d <= 3.

    Sylvester's criterion: every leading principal minor is positive.  The
    minors are A_00, the cofactor C_22 (d = 3) and the determinant, which is
    ``D`` when the caller already has it.
    """
    d = _order(A)
    ok = ((det(A) if D is None else D) > 0) & (A[..., 0, 0] > 0)
    if d == 3:
        ok &= _cofactor(A, 2, 2) > 0
    return ok


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise dot product u^T v: the a-inner product of frame vectors, or a 1-form applied to a vector."""
    return np.einsum("...a,...a->...", u, v)


def matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise matrix-vector product A v."""
    return np.einsum("...ab,...b->...a", A, v)


def quad(u: np.ndarray, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise bilinear form u^T A v: the inner product of u and v in the metric A."""
    return np.einsum("...a,...ab,...b->...", u, A, v)


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise outer product u v^T."""
    return u[..., :, None] * v[..., None, :]


def trace(A: np.ndarray) -> np.ndarray:
    return np.einsum("...aa->...", A)


def _leverrier(mats: Sequence[np.ndarray], lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_lam, T_lam) of the matrix tuple ``mats``, |lam| >= 1, by Faddeev-LeVerrier on
    A(t) = sum_i t_i A_i: sigma_s = tr(A(t) T_{s-1}) / s, T_s = sigma_s I - A(t) T_{s-1}, T_0 = I.

    T_s is homogeneous of degree s, held as its coefficient blocks of t^a, a <= lam; a
    matrix whose entry of lam is 0 is never multiplied.  The products A_i T_0 are A_i, and
    none follows the last step.
    """
    n = sum(lam)
    eye = np.eye(mats[0].shape[-1])
    AT = {tuple(int(i == j) for j in range(len(mats))): A for i, A in enumerate(mats) if lam[i]}
    for s in range(1, n + 1):
        sig = {a: trace(P) / s for a, P in AT.items()}
        T = {a: sig[a][..., None, None] * eye - P for a, P in AT.items()}
        if s < n:
            AT = {}
            for a, Ta in T.items():
                for i, A in enumerate(mats):
                    if a[i] < lam[i]:
                        b = a[:i] + (a[i] + 1,) + a[i + 1 :]
                        AT[b] = AT[b] + A @ Ta if b in AT else A @ Ta
    return sig[lam], T[lam]


def sigma_k(A: np.ndarray, k: int) -> np.ndarray:
    """Elementary symmetric function of each m x m matrix in the field.

    Orders above m return zero (det(I + tA) has degree m), which keeps
    second-order integrands meaningful on one-dimensional leaves.
    """
    m = A.shape[-1]
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k > m:
        return np.zeros(A.shape[:-2])
    if k == 0:
        return np.ones(A.shape[:-2])
    return _leverrier((A,), (k,))[0]


def newton_transform_batched(A: np.ndarray, r: int) -> np.ndarray:
    """Nodewise Newton transformation T_r(A) = sigma_r(A) I - A T_{r-1}(A), T_0 = I."""
    m = A.shape[-1]
    if not 0 <= r <= m:
        raise ValueError(f"order {r} out of range for {m} x {m} matrices")
    if r == 0:
        return np.broadcast_to(np.eye(m), A.shape).copy()
    return _leverrier((A,), (r,))[1]


def newton_chain(core: np.ndarray, k: int, updates) -> np.ndarray:
    """Nodewise sigma_k(core + sum_i w_i p_i q_i^T) - sigma_k(core), one rank-one update at a time.

    ``updates`` lists (p, q, w): frame vectors p, q and a scalar or field
    weight w.  The difference is sum_i w_i q_i^T T_{k-1}(C_i) p_i with C_1 =
    core and C_{i+1} = C_i + w_i p_i q_i^T; the last update's matrix is never
    formed.
    """
    out = 0.0
    C = core
    for i, (p, q, w) in enumerate(updates):
        T = newton_transform_batched(C, k - 1)
        out = out + w * quad(q, T, p)
        if i + 1 < len(updates):
            C = C + outer(p, q) * np.asarray(w)[..., None, None]
    return out
