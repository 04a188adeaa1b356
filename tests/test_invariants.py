import numpy as np
import pytest

from randers_foliations.invariants import (
    det,
    inv,
    is_spd,
    matvec,
    newton_chain,
    newton_transform_batched,
    outer,
    quad,
    sigma_k,
)


def _stacks(d, seed):
    """A general and an SPD (4, 5, d, d) stack, both well conditioned."""
    rng = np.random.default_rng(seed)
    general = rng.uniform(-1, 1, (4, 5, d, d)) + 2.0 * np.eye(d)
    B = rng.uniform(-1, 1, (4, 5, d, d))
    spd = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(d)
    return general, spd


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cofactor_det_and_inv_match_lapack(d):
    for A in _stacks(d, seed=d):
        ref_det = np.linalg.det(A)
        np.testing.assert_allclose(det(A), ref_det, rtol=1e-12, atol=0)
        ref_inv = np.linalg.inv(A)
        scale = np.max(np.abs(ref_inv), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(inv(A) - ref_inv) / scale) < 1e-12
        # a determinant passed in is the one they would compute
        D = det(A)
        assert np.array_equal(inv(A, D), inv(A))
        assert np.array_equal(is_spd(A, D), is_spd(A))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sylvester_test_matches_eigenvalues(d):
    general, spd = _stacks(d, seed=10 + d)
    assert is_spd(spd).all()
    sym = 0.5 * (general + np.swapaxes(general, -1, -2)) - 1.5 * np.eye(d)
    np.testing.assert_array_equal(is_spd(sym), np.linalg.eigvalsh(sym).min(axis=-1) > 0)


def test_sylvester_test_rejects_indefinite_matrices_with_positive_diagonal():
    assert not is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # leading minors 1, 1, -3: only the determinant fails
    A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    assert A[0, 0] > 0 and np.linalg.det(A[:2, :2]) > 0 and det(A) < 0
    assert not is_spd(A)
    # eigenvalues 5, -1, -1: leading minors 1, -3, 5, so only the second fails
    B = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    assert det(B) > 0 and not is_spd(B)
    assert is_spd(np.stack([np.eye(3), A, B, 2.0 * np.eye(3)])).tolist() == [True, False, False, True]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("grid", [(4, 5), (3, 4, 5)], ids=["2d", "3d"])
def test_matvec_and_quad_are_the_nodewise_products(d, grid):
    rng = np.random.default_rng(40 + d + len(grid))
    A = rng.uniform(-1, 1, grid + (d, d))
    u, v = rng.uniform(-1, 1, (2,) + grid + (d,))
    uAv = quad(u, A, v)
    assert uAv.shape == grid
    # a transposed, non-contiguous view gives the vector-matrix product v A; a
    # (d*d, d) stack is the connection matrix along v
    for B in (A, np.swapaxes(A, -1, -2), rng.uniform(-1, 1, grid + (d * d, d))):
        Bv = matvec(B, v)
        assert Bv.shape == B.shape[:-1]
        for i in np.ndindex(*grid):
            np.testing.assert_allclose(Bv[i], B[i] @ v[i], rtol=0, atol=1e-14)
    for i in np.ndindex(*grid):
        np.testing.assert_allclose(uAv[i], u[i] @ A[i] @ v[i], rtol=0, atol=1e-14)


def test_kernels_reject_unsupported_shapes():
    for bad in (np.eye(4), np.ones((3, 2)), np.ones(3)):
        for kernel in (det, inv, is_spd):
            with pytest.raises(ValueError):
                kernel(bad)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_transform_starts_at_first_order(m):
    # the recursion from T_0 = I, with its product A T_0, gives the same arrays
    rng = np.random.default_rng(20 + m)
    A = rng.uniform(-1, 1, (4, 5, m, m))
    T = np.broadcast_to(np.eye(m), A.shape).copy()
    for r in range(m + 1):
        if r:
            T = sigma_k(A, r)[..., None, None] * np.eye(m) - A @ T
        assert np.array_equal(newton_transform_batched(A, r), T), r


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("field_weights", [False, True])
def test_newton_chain_is_the_rank_one_expansion(m, field_weights):
    rng = np.random.default_rng(30 + m + 10 * field_weights)
    core = rng.uniform(-1, 1, (7, 5, m, m))
    for k in range(1, m + 1):
        for s in (1, 2, 3):
            ups = []
            for _ in range(s):
                p, q = rng.uniform(-1, 1, (2, 7, 5, m))
                w = rng.uniform(-1, 1, (7, 5)) if field_weights else float(rng.uniform(-1, 1))
                ups.append((p, q, w))
            full = core + sum(outer(p, q) * np.asarray(w)[..., None, None] for p, q, w in ups)
            want = sigma_k(full, k) - sigma_k(core, k)
            np.testing.assert_allclose(newton_chain(core, k, ups), want, rtol=0, atol=1e-13)
