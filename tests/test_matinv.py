import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers_foliations import matinv
from randers_foliations.matinv import (
    ORACLE_MAX_DIM,
    newton_transform,
    sigma_multi,
    sigma_single,
    sigma_via_determinant,
    verify_appendix_identities,
)


def test_sigma_single_identity_matrix():
    # binomial coefficients of det(I + t I) = (1 + t)^3
    assert sigma_single(np.eye(3), 2) == pytest.approx(3.0, abs=1e-12)
    assert sigma_single(np.eye(3), 0) == 1.0
    assert sigma_single(np.eye(3), 3) == pytest.approx(1.0, abs=1e-12)


def test_sigma_single_diagonal():
    A = np.diag([1.0, 2.0])
    assert sigma_single(A, 1) == pytest.approx(3.0, abs=1e-12)
    assert sigma_single(A, 2) == pytest.approx(2.0, abs=1e-12)


def test_sigma_single_matches_interpolation_oracle():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 1, (4, 4))
    assert sigma_single(A, 3) == pytest.approx(sigma_via_determinant([A], [3]), abs=1e-10)


def test_sigma_single_range_errors():
    with pytest.raises(ValueError):
        sigma_single(np.eye(2), 3)
    with pytest.raises(ValueError):
        sigma_single(np.eye(2), -1)


def test_sigma_multi_pair_example():
    # det(I + s diag(1,2) + t [[0,1],[1,0]]) has no s t term
    A1 = np.diag([1.0, 2.0])
    A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sigma_multi([A1, A2], (1, 1)) == pytest.approx(0.0, abs=1e-12)
    # same statement through the trace identity
    assert np.trace(A1) * np.trace(A2) - np.trace(A1 @ A2) == pytest.approx(0.0)


def test_sigma_multi_identity_slot():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (3, 3))
    lhs = sigma_multi([np.eye(3), A], (1, 1))
    assert lhs == pytest.approx(math.comb(2, 1) * sigma_single(A, 1), rel=1e-12)


def test_sigma_multi_merge_law():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, (4, 4))
    assert sigma_multi([A, A], (1, 1)) == pytest.approx(2.0 * sigma_single(A, 2), rel=1e-11)


def test_sigma_multi_reduces_to_single():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (5, 5))
    for k in range(6):
        assert sigma_multi([A], [k]) == pytest.approx(sigma_single(A, k), rel=1e-10, abs=1e-12)


def test_sigma_pair_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, ORACLE_MAX_DIM + 1))
        A, B = rng.uniform(-1, 1, (2, m, m))
        lam = (int(rng.integers(0, m)), int(rng.integers(1, m)))
        if sum(lam) > m:
            continue
        assert sigma_multi([A, B], lam) == pytest.approx(
            sigma_via_determinant([A, B], lam), rel=1e-9, abs=1e-9
        )


def test_oracle_holds_its_tolerance_at_its_largest_size():
    # two to four matrices: each added variable is one more Vandermonde solve
    rng = np.random.default_rng(12)
    m = ORACLE_MAX_DIM
    for k in (2, 3, 4):
        for _ in range(20):
            mats = list(rng.uniform(-1, 1, (k, m, m)))
            cuts = np.sort(rng.integers(0, m + 1, size=k))
            lam = tuple(int(x) for x in np.diff(np.concatenate(([0], cuts))))
            assert sigma_via_determinant(mats, lam) == pytest.approx(sigma_multi(mats, lam), rel=1e-9, abs=1e-9)


def test_oracle_rejects_sizes_above_its_range():
    rng = np.random.default_rng(13)
    n = ORACLE_MAX_DIM + 1
    with pytest.raises(ValueError, match=f"oracle's maximum {ORACLE_MAX_DIM}"):
        sigma_via_determinant(list(rng.uniform(-1, 1, (2, n, n))), (1, 1))
    # the suite's laws exceed its 1e-9 through oracle roundoff at m_max = 5
    with pytest.raises(ValueError, match="m_max"):
        verify_appendix_identities(seed=7, trials=1, m_max=5)
    # the recursion keeps its own range: sigma_(r, lam)(I, A, B) = C(m - |lam|, r) sigma_lam(A, B)
    A, B = rng.uniform(-1, 1, (2, 6, 6))
    lhs = sigma_multi([np.eye(6), A, B], (1, 2, 2))
    assert lhs == pytest.approx(math.comb(2, 1) * sigma_multi([A, B], (2, 2)), rel=1e-12)


def test_sigma_multi_never_reads_the_oracle(monkeypatch):
    rng = np.random.default_rng(14)
    m = ORACLE_MAX_DIM
    tuples = [list(rng.uniform(-1, 1, (k, m, m))) for k in (1, 2, 3, 4)]
    refs = [sigma_via_determinant(mats, (1,) * len(mats)) for mats in tuples]

    def refuse(mats, lam):
        raise AssertionError("sigma_multi called the oracle")

    monkeypatch.setattr(matinv, "sigma_via_determinant", refuse)
    for mats, ref in zip(tuples, refs):
        assert sigma_multi(mats, (1,) * len(mats)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("m", [6, 8, 12, 16])
def test_trace_routes_hold_above_the_oracle_range(m):
    # against np.poly, an eigenvalue route: det(tI + A) = sum_k sigma_k(A) t^(m-k)
    rng = np.random.default_rng(30 + m)
    for _ in range(3):
        A, B = rng.uniform(-1, 1, (2, m, m))
        ref, ref_sum = np.poly(-A), np.poly(-(A + B))
        scale, scale_sum = max(1.0, np.abs(ref).max()), max(1.0, np.abs(ref_sum).max())
        for n in range(m + 1):
            assert abs(sigma_single(A, n) - ref[n]) / scale < 1e-10, n
            # sum_j sigma_(n-j,j)(A, B) = sigma_n(A + B)
            pair = [sigma_multi([A, B], (n - j, j)) for j in range(n + 1)]
            assert abs(sum(pair) - ref_sum[n]) / scale_sum < 1e-10, n
            # sigma_(r,n-j,j)(I, A, B) = C(m - n, r) sigma_(n-j,j)(A, B), r = ceil((m - n) / 2)
            r = (m - n + 1) // 2
            rhs = [math.comb(m - n, r) * x for x in pair]
            scale_rhs = max(1.0, *map(abs, rhs))
            for j in range(n + 1):
                lhs = sigma_multi([np.eye(m), A, B], (r, n - j, j))
                assert abs(lhs - rhs[j]) / scale_rhs < 1e-10, (n, j)
            # tr T_r(A) = (m - r) sigma_r(A)
            assert abs(np.trace(newton_transform(A, n)) - (m - n) * ref[n]) / scale < 1e-10, n


def test_sigma_multi_shape_error():
    with pytest.raises(ValueError):
        sigma_multi([np.eye(2), np.eye(3)], (1, 1))
    with pytest.raises(ValueError):
        sigma_multi([np.eye(2)], (3,))


def test_multi_index_is_validated():
    # a wrong length, a negative, fractional or non-finite entry, or |lambda| > m is an error
    I3 = np.eye(3)
    for lam in [(1, 1, 7), (1,), (1.5, 1), (float("inf"), 0), (float("nan"), 0), (-1, 1), (2, 2)]:
        with pytest.raises(ValueError):
            sigma_multi([I3, I3], lam)
    with pytest.raises(ValueError, match="integers"):
        sigma_multi([I3], (1.5,))
    with pytest.raises(ValueError, match="integers"):
        sigma_via_determinant([I3, I3], (1, 0.5))
    # integral floats and numpy integers still name an index: (1 + s + t)^3 has st-coefficient 6
    assert sigma_multi([I3, I3], (1.0, np.int64(1))) == pytest.approx(6.0)


def test_conjugation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        mats = [rng.uniform(-1, 1, (m, m)) for _ in range(2)]
        Q = rng.uniform(-1, 1, (m, m)) + 2 * np.eye(m)
        Qi = np.linalg.inv(Q)
        conj = [Q @ A @ Qi for A in mats]
        lam = (1, m - 1)
        a = sigma_multi(mats, lam)
        b = sigma_multi(conj, lam)
        assert b == pytest.approx(a, rel=1e-8, abs=1e-8)


def test_newton_transform_diag():
    T1 = newton_transform(np.diag([1.0, 2.0]), 1)
    np.testing.assert_allclose(T1, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(newton_transform(np.eye(3), 0), np.eye(3))


def test_newton_transform_trace_identity():
    rng = np.random.default_rng(6)
    A = rng.uniform(-1, 1, (3, 3))
    for r in range(4):
        tr = np.trace(newton_transform(A, r))
        assert tr == pytest.approx((3 - r) * sigma_single(A, r), abs=1e-10)


def test_newton_transform_scaling():
    rng = np.random.default_rng(8)
    A = rng.uniform(-1, 1, (4, 4))
    np.testing.assert_allclose(
        newton_transform(2 * A, 2), 4 * newton_transform(A, 2), atol=1e-12
    )


def test_newton_transform_range_error():
    with pytest.raises(ValueError):
        newton_transform(np.eye(2), 3)


def test_appendix_identities_suite():
    res = verify_appendix_identities(seed=1, trials=100, m_max=4)
    for name, value in res.items():
        assert value < 1e-9, f"identity {name} residual {value:.3e}"


def test_oracle_equivalence_bulk():
    # 200 random tuples, m <= ORACLE_MAX_DIM, k <= 3, |lam| <= m
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, ORACLE_MAX_DIM + 1))
        k = int(rng.integers(1, 4))
        mats = [rng.uniform(-1, 1, (m, m)) for _ in range(k)]
        total = int(rng.integers(1, m + 1))
        cuts = np.sort(rng.integers(0, total + 1, size=k - 1))
        lam = tuple(int(x) for x in np.diff(np.concatenate(([0], cuts, [total]))))
        a = sigma_multi(mats, lam)
        b = sigma_via_determinant(mats, lam)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    assert worst < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_char_poly_coefficients_property(m, seed):
    # det(I + t A) coefficients from sigma_single reproduce the polynomial values
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (m, m))
    coeffs = [sigma_single(A, k) for k in range(m + 1)]
    for t in (0.5, 1.0, 2.0):
        poly = sum(c * t**k for k, c in enumerate(coeffs))
        direct = np.linalg.det(np.eye(m) + t * A)
        assert poly == pytest.approx(direct, rel=1e-9, abs=1e-9)
