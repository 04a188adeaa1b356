"""Invariants sigma_lambda of tuples of square matrices.

For matrices A_1, ..., A_k of common size m and a multi-index
lam = (lam_1, ..., lam_k) with |lam| <= m, sigma_lambda(A_1, ..., A_k) is the
coefficient of t_1^lam_1 * ... * t_k^lam_k in det(I + t_1 A_1 + ... + t_k A_k).
For a single matrix these are the elementary symmetric functions of its
eigenvalues; sigma_1 is the trace, sigma_m the determinant.

Every value comes from one recursion: ``sigma_single``, ``sigma_multi`` and
``newton_transform`` check their input and call the Faddeev-LeVerrier loop of
:mod:`randers_foliations.invariants`, which runs sigma_s = tr(A T_{s-1}) / s,
T_s = sigma_s I - A T_{s-1}, T_0 = I on A = sum_i t_i A_i for a tuple of any
length, up to MAX_DIM.  This module is the package's one evaluator of
sigma_lambda on two or more matrices.

``sigma_via_determinant`` is a reference only: it evaluates the determinant on
the integer grid {0, ..., m}^k and recovers the coefficient by multivariate
polynomial interpolation (a Vandermonde solve per variable), sharing no code
with the recursion.  The solves lose accuracy fast with m, so it accepts
m <= ORACLE_MAX_DIM only.

``verify_appendix_identities`` samples random tuples and measures the
residual of every algebraic identity the rest of the package relies on,
through ``sigma_k``, ``newton_transform_batched`` and ``newton_chain``, the
batched kernels the verifier calls.  Its laws read tuples with three or more
nonzero entries through the oracle (``_law_sigma``), so that each law still
compares the oracle with the recursion.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .invariants import _leverrier, newton_chain, newton_transform_batched, sigma_k, trace

__all__ = [
    "sigma_single",
    "sigma_multi",
    "sigma_via_determinant",
    "newton_transform",
    "verify_appendix_identities",
]

MAX_DIM = 16
# the oracle's worst relative error against a 60-80 digit evaluation is about
# 3e-10 at m = 5, 7e-7 at m = 7 and 1e-2 at m = 10.  Against the recursion at m = 5
# it reaches about 8e-12 on one matrix, 1.2e-10 on two and 1.8e-9 on three, and the
# suite's laws, which add a slot, exceed its 1e-9 at m_max = 5 (1.27e-8 on seed 7).
# At m = 4 the suite's worst over seeds 0-2299 is 8.37e-10 (seed 199)
ORACLE_MAX_DIM = 4


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if A.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension {A.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _check_index(mats: Sequence, lam: Sequence[int]) -> tuple[list[np.ndarray], tuple[int, ...]]:
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    mats = [_as_square(A) for A in mats]
    m = mats[0].shape[0]
    if any(A.shape[0] != m for A in mats):
        raise ValueError("all matrices in a tuple must share the same dimension")
    if not all(float(x).is_integer() for x in lam):
        raise ValueError(f"multi-index entries must be integers, got {tuple(lam)}")
    lam = tuple(int(x) for x in lam)
    if len(lam) != len(mats):
        raise ValueError("multi-index length must match the number of matrices")
    if any(x < 0 for x in lam):
        raise ValueError("multi-index entries must be nonnegative")
    if sum(lam) > m:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds matrix dimension {m}")
    return mats, lam


def sigma_single(A, k: int) -> float:
    """Elementary symmetric function sigma_k(A) by the Faddeev-LeVerrier recursion (``invariants.sigma_k``)."""
    A = _as_square(A)
    m = A.shape[0]
    if not 0 <= k <= m:
        raise ValueError(f"order k={k} out of range [0, {m}]")
    return float(sigma_k(A, k))


def sigma_via_determinant(mats: Sequence, lam: Sequence[int]) -> float:
    """Oracle: multivariate interpolation of det(I + sum t_i A_i) on {0..m}^k.

    A reference only, sharing no code with the recursion.  Its roundoff grows
    with the Vandermonde solves, so it raises ``ValueError`` for m > ORACLE_MAX_DIM.
    """
    mats, lam = _check_index(mats, lam)
    m = mats[0].shape[0]
    if m > ORACLE_MAX_DIM:
        raise ValueError(f"matrix dimension {m} exceeds the oracle's maximum {ORACLE_MAX_DIM}")
    k = len(mats)
    shape = (m + 1,) * k
    vals = np.empty(shape)
    eye = np.eye(m)
    for idx in np.ndindex(*shape):
        M = eye.copy()
        for t, A in zip(idx, mats):
            if t:
                M += t * A
        vals[idx] = np.linalg.det(M)
    # V[p, q] = p^q on nodes p = 0..m; solve along each axis
    V = np.vander(np.arange(m + 1, dtype=float), increasing=True)
    coeff = vals
    for axis in range(k):
        moved = np.moveaxis(coeff, axis, 0)
        flat = moved.reshape(m + 1, -1)
        solved = np.linalg.solve(V, flat)
        coeff = np.moveaxis(solved.reshape(moved.shape), 0, axis)
    return float(coeff[lam])


def sigma_multi(mats: Sequence, lam: Sequence[int]) -> float:
    """sigma_lambda(A_1, ..., A_k) for any k and m <= MAX_DIM, by the Faddeev-LeVerrier
    recursion of ``invariants`` on A(t) = sum_i t_i A_i; it equals ``sigma_single`` when k == 1.

    A matrix whose entry of the multi-index is 0 cannot contribute and is never multiplied.
    """
    mats, lam = _check_index(mats, lam)
    if sum(lam) == 0:
        return 1.0
    return float(_leverrier(mats, lam)[0])


def newton_transform(A, r: int) -> np.ndarray:
    """Newton transformation T_r(A) = sigma_r(A) I - A T_{r-1}(A), T_0 = I.

    Satisfies tr T_r(A) = (m - r) sigma_r(A) and T_r(c A) = c^r T_r(A).
    """
    A = _as_square(A)
    m = A.shape[0]
    if not 0 <= r <= m:
        raise ValueError(f"order r={r} out of range [0, {m}]")
    return newton_transform_batched(A, r)


def _rand_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(m, m))


def _rand_multi_index(rng: np.random.Generator, k: int, m: int) -> tuple[int, ...]:
    # random weak composition with 1 <= |lam| <= m
    total = int(rng.integers(1, m + 1))
    cuts = np.sort(rng.integers(0, total + 1, size=k - 1)) if k > 1 else np.empty(0, int)
    parts = np.diff(np.concatenate(([0], cuts, [total])))
    return tuple(int(x) for x in parts)


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _law_sigma(mats: Sequence, lam: Sequence[int]) -> float:
    """sigma_lambda as the identity laws read it: the oracle on three or more
    nonzero entries, so that each law compares the oracle with the recursion."""
    if sum(l > 0 for l in lam) < 3:
        return sigma_multi(mats, lam)
    return sigma_via_determinant([A for A, l in zip(mats, lam) if l], [l for l in lam if l])


def verify_appendix_identities(seed: int, trials: int, m_max: int) -> dict[str, float]:
    """Sample random tuples and return the max residual of each identity.

    Checked: vanishing/reduction on a zero matrix or zero index, permutation
    symmetry, the identity-matrix binomial law, merging of repeated matrices,
    additivity/scaling in one slot, the sigma_{k,l} product expansion, and the
    rank-one update expansion (``invariants.newton_chain``).  ``oracle_agreement``
    compares ``sigma_multi`` with the oracle on every sampled tuple.  The laws
    read tuples with three or more nonzero entries through the oracle
    (``_law_sigma``), so the identity, merge and sigma_{k,l} laws compare it
    with the recursion's pair and single values.  All residuals are normalised
    by max(1, |lhs|, |rhs|).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 2 <= m_max <= ORACLE_MAX_DIM:
        raise ValueError(f"m_max must be in [2, {ORACLE_MAX_DIM}], the oracle's range")
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {
        "zero_law": 0.0,
        "permutation": 0.0,
        "identity_law": 0.0,
        "merge_law": 0.0,
        "additivity": 0.0,
        "scaling": 0.0,
        "sigma_kl": 0.0,
        "rank_one_update": 0.0,
        "oracle_agreement": 0.0,
    }
    for _ in range(trials):
        m = int(rng.integers(2, m_max + 1))
        k = int(rng.integers(1, 4))
        mats = [_rand_matrix(rng, m) for _ in range(k)]
        lam = _rand_multi_index(rng, k, m)

        # fast path vs interpolation oracle
        oracle = sigma_via_determinant(mats, lam)
        res["oracle_agreement"] = max(res["oracle_agreement"], _rel(sigma_multi(mats, lam), oracle))

        # (zero) first slot zero matrix, and zero index reduction
        if lam[0] > 0:
            val = _law_sigma([np.zeros((m, m))] + mats[1:], lam)
            res["zero_law"] = max(res["zero_law"], abs(val))
        val0 = _law_sigma([_rand_matrix(rng, m)] + mats, (0,) + lam)
        res["zero_law"] = max(res["zero_law"], _rel(val0, _law_sigma(mats, lam)))

        # (permutation)
        perm = rng.permutation(k)
        lhs = _law_sigma([mats[p] for p in perm], [lam[p] for p in perm])
        res["permutation"] = max(res["permutation"], _rel(lhs, _law_sigma(mats, lam)))

        # (identity law) sigma_{(r,) + lam}(I, A_2...) = C(m - |lam|, r) sigma_lam
        if sum(lam) < m:
            r = int(rng.integers(0, m - sum(lam) + 1))
            lhs = _law_sigma([np.eye(m)] + mats, (r,) + lam)
            rhs = math.comb(m - sum(lam), r) * _law_sigma(mats, lam)
            res["identity_law"] = max(res["identity_law"], _rel(lhs, rhs))

        # (merge law) repeated matrix slots merge with a binomial factor
        l1 = int(rng.integers(0, m + 1 - sum(lam)))
        l2 = int(rng.integers(0, m + 1 - sum(lam) - l1))
        A = mats[0]
        lhs = _law_sigma([A, A] + mats[1:], (l1, l2) + lam[1:]) if l1 + l2 + sum(lam[1:]) <= m else None
        if lhs is not None:
            rhs = math.comb(l1 + l2, l1) * _law_sigma([A] + mats[1:], (l1 + l2,) + lam[1:])
            res["merge_law"] = max(res["merge_law"], _rel(lhs, rhs))

        # (additivity in a degree-one slot) and (scaling)
        B = _rand_matrix(rng, m)
        hat = lam[1:]
        if 1 + sum(hat) <= m:
            lhs = _law_sigma([mats[0] + B] + mats[1:], (1,) + hat)
            rhs = _law_sigma(mats, (1,) + hat) + _law_sigma([B] + mats[1:], (1,) + hat)
            res["additivity"] = max(res["additivity"], _rel(lhs, rhs))
        a = float(rng.uniform(0.5, 2.0))
        lhs = _law_sigma([a * mats[0]] + mats[1:], lam)
        rhs = a ** lam[0] * _law_sigma(mats, lam)
        res["scaling"] = max(res["scaling"], _rel(lhs, rhs))

        # sigma_{k,l}(B, C) = sigma_k(B) sigma_l(C) - sum_i sigma_{k-i,l-i,i}(B, C, BC)
        B1, C1 = _rand_matrix(rng, m), _rand_matrix(rng, m)
        kk = int(rng.integers(1, m))
        ll = int(rng.integers(1, m - kk + 1)) if m - kk >= 1 else 0
        if kk >= 1 and ll >= 1:
            lhs = _law_sigma([B1, C1], (kk, ll))
            rhs = sigma_single(B1, kk) * sigma_single(C1, ll)
            for i in range(1, min(kk, ll) + 1):
                rhs -= _law_sigma([B1, C1, B1 @ C1], (kk - i, ll - i, i))
            res["sigma_kl"] = max(res["sigma_kl"], _rel(lhs, rhs))

        # rank-one update: sigma_k(C + D + A_1 + ... + A_s)
        C2 = _rand_matrix(rng, m)
        D2 = _rand_matrix(rng, m)
        s = int(rng.integers(1, 3))
        pq = [(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)) for _ in range(s)]
        ranks = [np.outer(p, q) for p, q in pq]
        korder = int(rng.integers(1, m + 1))
        lhs = sigma_single(C2 + D2 + sum(ranks), korder)
        rhs = sigma_single(C2, korder)
        for j in range(1, korder + 1):
            rhs += _law_sigma([C2, D2], (korder - j, j))
        rhs += newton_chain(C2 + D2, korder, [(p, q, 1.0) for p, q in pq])
        res["rank_one_update"] = max(res["rank_one_update"], _rel(lhs, rhs))

        # the bare single-update special case: sigma_k(C + A) = sigma_k(C)
        # + tr(T_{k-1}(C) A) for rank-one A
        A1 = ranks[0]
        lhs = sigma_single(C2 + A1, korder)
        rhs = sigma_single(C2, korder) + trace(newton_transform(C2, korder - 1) @ A1)
        res["rank_one_update"] = max(res["rank_one_update"], _rel(lhs, rhs))
    return res
