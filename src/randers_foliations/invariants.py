"""Batched matrix invariants for operator fields.

Frame representations of leaf operators are arrays of shape (..., m, m) and
those of leaf vectors arrays of shape (..., m); these helpers evaluate dot
and outer products, sigma_k, multi-matrix sigma_lambda and Newton
transformations nodewise.  Semantics match :mod:`randers_foliations.matinv`,
which owns the scalar reference implementations and the oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dot",
    "outer",
    "trace",
    "sigma_k",
    "sigma_multi_batched",
    "newton_transform_batched",
]


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise dot product of frame vectors: the a-inner product of tangent vectors."""
    return np.einsum("...a,...a->...", u, v)


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodewise outer product u v^T of frame vectors."""
    return u[..., :, None] * v[..., None, :]


def trace(A: np.ndarray) -> np.ndarray:
    return np.einsum("...aa->...", A)


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
    # Newton's identities from batched power sums
    p = [None]
    P = A
    for _ in range(k):
        p.append(trace(P))
        P = P @ A
    e = [np.ones(A.shape[:-2])]
    for r in range(1, k + 1):
        s = np.zeros(A.shape[:-2])
        for i in range(1, r + 1):
            s += (-1) ** (i - 1) * e[r - i] * p[i]
        e.append(s / r)
    return e[k]


def sigma_multi_batched(mats: list[np.ndarray], lam: tuple[int, ...]) -> np.ndarray:
    """Nodewise sigma_lambda via determinant interpolation on {0..m}^k."""
    if len(mats) != len(lam):
        raise ValueError("multi-index length must match the number of matrices")
    active = [(A, l) for A, l in zip(mats, lam) if l > 0]
    if not active:
        return np.ones(mats[0].shape[:-2])
    if len(active) == 1:
        return sigma_k(active[0][0], active[0][1])
    m = mats[0].shape[-1]
    if sum(lam) > m:
        raise ValueError("|lambda| exceeds the matrix dimension")
    k = len(active)
    base = mats[0].shape[:-2]
    eye = np.broadcast_to(np.eye(m), base + (m, m))
    vals = np.empty(base + ((m + 1),) * k)
    for idx in np.ndindex(*(((m + 1),) * k)):
        M = eye.copy()
        for t, (A, _) in zip(idx, active):
            if t:
                M = M + t * A
        vals[(Ellipsis,) + idx] = np.linalg.det(M)
    V = np.vander(np.arange(m + 1, dtype=float), increasing=True)
    Vinv = np.linalg.inv(V)
    coeff = vals
    for axis in range(k):
        coeff = np.moveaxis(
            np.einsum("pq,...q->...p", Vinv, np.moveaxis(coeff, -k + axis, -1)), -1, -k + axis
        )
    sel = (Ellipsis,) + tuple(l for _, l in active)
    return coeff[sel]


def newton_transform_batched(A: np.ndarray, r: int) -> np.ndarray:
    """Nodewise Newton transformation T_r(A) = sigma_r(A) I - A T_{r-1}(A)."""
    m = A.shape[-1]
    if not 0 <= r <= m:
        raise ValueError(f"order {r} out of range for {m} x {m} matrices")
    T = np.broadcast_to(np.eye(m), A.shape).copy()
    for s in range(1, r + 1):
        T = sigma_k(A, s)[..., None, None] * np.eye(m) - A @ T
    return T
