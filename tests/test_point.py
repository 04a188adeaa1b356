import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd
from randers_foliations.point import (
    RandersPoint,
    angular_form,
    cartan_torsion,
    distortion,
    distortion_closed,
    f_normal,
    fundamental_tensor,
    fundamental_tensor_printed,
    g_raise,
    leaf_metric,
    mean_cartan_torsion,
    perp_beta_project,
    randers_norm,
)


def random_point(rng, dim, beta_scale=0.6):
    M = rng.uniform(-1, 1, (dim, dim))
    a = M @ M.T + dim * np.eye(dim)
    beta = rng.uniform(-1, 1, dim)
    # rescale to the requested dual norm
    nrm = np.sqrt(beta @ np.linalg.inv(a) @ beta)
    beta *= beta_scale * rng.uniform(0.3, 1.0) / nrm
    return RandersPoint(a=a, beta=beta)


def random_unit_normal(rng, p):
    v = rng.standard_normal(p.dim)
    return v / p.alpha(v)


def test_construction_rejects_large_beta():
    a = np.eye(2)
    with pytest.raises(ValueError):
        RandersPoint(a=a, beta=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RandersPoint(a=a, beta=np.array([1.0 - 1e-12, 0.0]))


def test_construction_rejects_non_spd():
    with pytest.raises(ValueError):
        RandersPoint(a=np.diag([1.0, -1.0]), beta=np.zeros(2))
    with pytest.raises(ValueError):
        RandersPoint(a=np.array([[1.0, 0.5], [0.0, 1.0]]), beta=np.zeros(2))


def test_norm_riemannian_case():
    p = RandersPoint(a=np.eye(2), beta=np.zeros(2))
    assert randers_norm(p, [3.0, 4.0]) == pytest.approx(5.0)
    assert randers_norm(p, [0.0, 0.0]) == 0.0


def test_norm_aligned_beta():
    p = RandersPoint(a=np.eye(2), beta=np.array([0.5, 0.0]))
    assert randers_norm(p, [1.0, 0.0]) == pytest.approx(1.5)


def test_norm_homogeneity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_point(rng, int(rng.integers(2, 5)))
        y = rng.standard_normal(p.dim)
        assert randers_norm(p, 2 * y) == pytest.approx(2 * randers_norm(p, y), rel=1e-12)


def test_norm_positive_inside_unit_ball():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_point(rng, 3, beta_scale=0.95)
        y = rng.standard_normal(3)
        assert randers_norm(p, y) > 0.0


def test_fundamental_tensor_riemannian_reduction():
    rng = np.random.default_rng(2)
    M = rng.uniform(-1, 1, (3, 3))
    a = M @ M.T + 3 * np.eye(3)
    p = RandersPoint(a=a, beta=np.zeros(3))
    y = rng.standard_normal(3)
    np.testing.assert_allclose(fundamental_tensor(p, y), a, atol=1e-12)


def test_fundamental_tensor_matches_printed_form_on_unit_sphere():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_point(rng, 3)
        y = rng.standard_normal(3)
        y = y / p.alpha(y)
        g = fundamental_tensor(p, y)
        gp = fundamental_tensor_printed(p, y)
        assert np.max(np.abs(g - gp)) < 1e-12


def test_fundamental_tensor_against_fd_hessian():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        p = random_point(rng, dim)
        y = rng.standard_normal(dim) * rng.uniform(0.5, 3.0)

        def half_f2(z, p=p):
            return 0.5 * randers_norm(p, z) ** 2

        H = fd.hessian(half_f2, y, 1e-4 * p.alpha(y))
        g = fundamental_tensor(p, y)
        worst = max(worst, np.max(np.abs(g - H)) / np.max(np.abs(g)))
    assert worst < 1e-6


def test_fundamental_tensor_basic_identities():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        p = random_point(rng, dim)
        y = rng.standard_normal(dim)
        g = fundamental_tensor(p, y)
        F = randers_norm(p, y)
        # g_y(y, y) = F(y)^2
        assert y @ g @ y == pytest.approx(F**2, rel=1e-11)
        # scale invariance of the base vector
        for lam in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(fundamental_tensor(p, lam * y), g, atol=1e-10 * np.max(np.abs(g)))
        # determinant identity
        ratio = np.linalg.det(g) / np.linalg.det(p.a)
        assert ratio == pytest.approx((F / p.alpha(y)) ** (dim + 1), rel=1e-8)


def test_fundamental_tensor_strong_convexity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = random_point(rng, 3, beta_scale=0.95)
        y = rng.standard_normal(3)
        evals = np.linalg.eigvalsh(fundamental_tensor(p, y))
        assert evals[0] > 0.0


def test_fundamental_tensor_first_derivative_identity():
    # g_y(y, v) = (1/2) d/dt F^2(y + t v)
    rng = np.random.default_rng(7)
    p = random_point(rng, 3)
    y = rng.standard_normal(3)
    v = rng.standard_normal(3)
    g = fundamental_tensor(p, y)
    deriv = fd.directional(lambda z: 0.5 * randers_norm(p, z) ** 2, y, v, 1e-6)
    assert y @ g @ v == pytest.approx(deriv, rel=1e-8)


def test_cartan_zero_for_riemannian():
    p = RandersPoint(a=np.eye(3), beta=np.zeros(3))
    rng = np.random.default_rng(8)
    y, u, v, w = rng.standard_normal((4, 3))
    assert cartan_torsion(p, y, u, v, w) == pytest.approx(0.0, abs=1e-15)


def test_cartan_against_fd_third_derivative():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 4))
        p = random_point(rng, dim)
        N = random_unit_normal(rng, p)
        nd = f_normal(p, N)
        u, v, w = (x / p.alpha(x) for x in rng.standard_normal((3, dim)))

        def quarter_f2(z, p=p):
            return 0.25 * randers_norm(p, z) ** 2

        approx = fd.third_derivative(quarter_f2, nd.n, u, v, w, 1e-3)
        exact = cartan_torsion(p, nd.n, u, v, w)
        worst = max(worst, abs(approx - exact))
    assert worst < 1e-5


def test_cartan_kills_base_vector():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = random_point(rng, 3)
        y, u, v = rng.standard_normal((3, 3))
        assert abs(cartan_torsion(p, y, y, u, v)) < 1e-10


def test_cartan_scaling_and_symmetry():
    rng = np.random.default_rng(11)
    p = random_point(rng, 3)
    y, u, v, w = rng.standard_normal((4, 3))
    c = cartan_torsion(p, y, u, v, w)
    assert cartan_torsion(p, 2 * y, u, v, w) == pytest.approx(c / 2, rel=1e-11)
    assert cartan_torsion(p, y, v, w, u) == pytest.approx(c, rel=1e-11)


def test_mean_cartan_is_trace_of_cartan():
    rng = np.random.default_rng(12)
    p = random_point(rng, 3)
    y = rng.standard_normal(3)
    u = rng.standard_normal(3)
    g_inv = np.linalg.inv(fundamental_tensor(p, y))
    basis = np.eye(3)
    tr = 0.0
    for j in range(3):
        for k in range(3):
            tr += g_inv[j, k] * cartan_torsion(p, y, basis[j], basis[k], u)
    assert mean_cartan_torsion(p, y, u) == pytest.approx(tr, rel=1e-9, abs=1e-12)


def test_distortion_riemannian_zero():
    p = RandersPoint(a=2.0 * np.eye(3), beta=np.zeros(3))
    assert distortion(p, np.array([1.0, 2.0, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_distortion_homogeneity_and_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_point(rng, 3)
        y = rng.standard_normal(3)
        t = distortion(p, y)
        assert distortion(p, 2 * y) == pytest.approx(t, abs=1e-12)
        assert distortion_closed(p, y) == pytest.approx(t, rel=1e-10, abs=1e-12)


def test_distortion_normal_closed_form():
    # at y = n the closed form reads ((d+1)/2) log(c / (2c - chat));
    # 2c - chat = c - beta(N) > 0 always since |beta(N)| < c
    rng = np.random.default_rng(14)
    for _ in range(30):
        p = random_point(rng, 3, beta_scale=0.9)
        nd = f_normal(p, random_unit_normal(rng, p))
        assert 2 * nd.c - nd.chat > 0
        closed = 2.0 * np.log(nd.c / (2 * nd.c - nd.chat))
        assert distortion(p, nd.n) == pytest.approx(closed, rel=1e-9, abs=1e-11)


def test_f_normal_riemannian_reduction():
    p = RandersPoint(a=np.eye(3), beta=np.zeros(3))
    N = np.array([0.0, 0.0, 1.0])
    nd = f_normal(p, N)
    np.testing.assert_allclose(nd.n, N)
    np.testing.assert_allclose(nd.nu, N)
    assert nd.c == 1.0 and nd.chat == 1.0


def test_f_normal_euclidean_example():
    p = RandersPoint(a=np.eye(2), beta=np.array([0.3, 0.4]))
    nd = f_normal(p, np.array([0.0, 1.0]))
    c = np.sqrt(0.91)
    assert nd.c == pytest.approx(c, abs=1e-12)
    assert nd.chat == pytest.approx(c + 0.4, abs=1e-12)
    np.testing.assert_allclose(nd.n, [-0.3, c], atol=1e-12)
    assert p.alpha(nd.n) == pytest.approx(1.0, abs=1e-12)
    g = fundamental_tensor(p, nd.n)
    assert abs(nd.n @ g @ np.array([1.0, 0.0])) < 1e-12


def test_f_normal_orthogonality_and_norm():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        p = random_point(rng, dim, beta_scale=0.85)
        N = random_unit_normal(rng, p)
        nd = f_normal(p, N)
        assert p.alpha(nd.n) == pytest.approx(1.0, abs=1e-11)
        g = fundamental_tensor(p, nd.n)
        # basis of W: project coordinate vectors
        for i in range(dim):
            w = np.eye(dim)[i] - p.inner(np.eye(dim)[i], N) * N
            if p.alpha(w) < 1e-8:
                continue
            worst = max(worst, abs(nd.n @ g @ w))
        # F(n) = 1 + beta(n) = c chat, g(n, n) = (c chat)^2
        F = randers_norm(p, nd.n)
        assert F == pytest.approx(nd.c * nd.chat, abs=1e-12)
        assert F == pytest.approx(1.0 + p.beta @ nd.n, abs=1e-12)
        assert nd.n @ g @ nd.n == pytest.approx((nd.c * nd.chat) ** 2, rel=1e-12)
    assert worst < 1e-11


def test_f_normal_requires_unit_normal():
    p = RandersPoint(a=np.eye(2), beta=np.zeros(2))
    with pytest.raises(ValueError):
        f_normal(p, np.array([0.0, 2.0]))


def test_leaf_metric_values():
    rng = np.random.default_rng(16)
    p = RandersPoint(a=np.eye(3), beta=np.zeros(3))
    nd = f_normal(p, np.array([0.0, 0.0, 1.0]))
    u = np.array([1.0, 2.0, 0.0])
    v = np.array([-1.0, 1.0, 0.0])
    assert leaf_metric(p, nd, u, v) == pytest.approx(u @ v)

    for _ in range(30):
        q = random_point(rng, 3, beta_scale=0.9)
        nd = f_normal(q, random_unit_normal(rng, q))
        bst = nd.beta_sharp_top
        if q.alpha(bst) < 1e-6:
            continue
        # frozen scalar: g(bst, bst) = c^3 chat (1 - c^2)
        expected = nd.c**3 * nd.chat * (1 - nd.c**2)
        assert leaf_metric(q, nd, bst, bst) == pytest.approx(expected, rel=1e-11)


def test_leaf_metric_matches_fundamental_tensor():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = random_point(rng, 4, beta_scale=0.8)
        N = random_unit_normal(rng, p)
        nd = f_normal(p, N)
        g = fundamental_tensor(p, nd.n)
        u = rng.standard_normal(4)
        u -= p.inner(u, N) * N
        v = rng.standard_normal(4)
        v -= p.inner(v, N) * N
        assert leaf_metric(p, nd, u, v) == pytest.approx(float(u @ g @ v), rel=1e-10, abs=1e-12)


def test_leaf_metric_rejects_non_tangent():
    p = RandersPoint(a=np.eye(2), beta=np.zeros(2))
    nd = f_normal(p, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        leaf_metric(p, nd, np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_g_raise_trivial_cases():
    rng = np.random.default_rng(18)
    # beta tangential part zero: u = U / (c chat)
    p = RandersPoint(a=np.eye(3), beta=np.array([0.0, 0.0, 0.3]))
    nd = f_normal(p, np.array([0.0, 0.0, 1.0]))
    U = np.array([1.0, -2.0, 0.0])
    np.testing.assert_allclose(g_raise(p, nd, U), U / (nd.c * nd.chat), atol=1e-14)
    # U orthogonal to beta_sharp_top
    p = RandersPoint(a=np.eye(3), beta=np.array([0.4, 0.0, 0.1]))
    nd = f_normal(p, np.array([0.0, 0.0, 1.0]))
    U = np.array([0.0, 1.5, 0.0])
    np.testing.assert_allclose(g_raise(p, nd, U), U / (nd.c * nd.chat), atol=1e-14)


def test_g_raise_solves_duality():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        p = random_point(rng, 3, beta_scale=0.85)
        N = random_unit_normal(rng, p)
        nd = f_normal(p, N)
        U = rng.standard_normal(3)
        U -= p.inner(U, N) * N
        u = g_raise(p, nd, U)
        for i in range(3):
            v = np.eye(3)[i] - p.inner(np.eye(3)[i], N) * N
            if p.alpha(v) < 1e-8:
                continue
            worst = max(worst, abs(leaf_metric(p, nd, u, v) - p.inner(U, v)))
    assert worst < 1e-11


def test_perp_beta_project():
    rng = np.random.default_rng(20)
    p = random_point(rng, 3, beta_scale=0.8)
    N = random_unit_normal(rng, p)
    nd = f_normal(p, N)
    bst = nd.beta_sharp_top
    # projection of beta_sharp_top itself vanishes
    np.testing.assert_allclose(perp_beta_project(p, nd, bst), 0.0, atol=1e-12)
    # random tangent vectors land a-orthogonal to beta_sharp_top
    for _ in range(30):
        X = rng.standard_normal(3)
        X -= p.inner(X, N) * N
        Xp = perp_beta_project(p, nd, X)
        assert abs(p.inner(Xp, bst)) < 1e-12
    # orthogonal input is unchanged
    X = rng.standard_normal(3)
    X -= p.inner(X, N) * N
    X -= p.inner(X, bst) / p.inner(bst, bst) * bst
    np.testing.assert_allclose(perp_beta_project(p, nd, X), X, atol=1e-13)


def test_angular_form_kills_base_vector():
    rng = np.random.default_rng(21)
    p = random_point(rng, 3)
    y, v = rng.standard_normal((2, 3))
    assert angular_form(p, y, y, v) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=0.95),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_norm_positivity_and_convexity_property(dim, beta_norm, seed):
    # F > 0 away from the origin and g_y stays positive definite for every
    # admissible beta, arbitrarily close to the unit-norm boundary
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (dim, dim))
    a = M @ M.T + dim * np.eye(dim)
    direction = rng.standard_normal(dim)
    nrm = np.sqrt(direction @ np.linalg.inv(a) @ direction)
    beta = direction * (beta_norm / nrm) if nrm > 0 else np.zeros(dim)
    p = RandersPoint(a=a, beta=beta)
    y = rng.standard_normal(dim)
    if p.alpha(y) < 1e-9:
        return
    assert randers_norm(p, y) > 0.0
    evals = np.linalg.eigvalsh(fundamental_tensor(p, y))
    assert evals[0] > 0.0
    # positive 1-homogeneity
    lam = float(rng.uniform(0.1, 5.0))
    assert randers_norm(p, lam * y) == pytest.approx(lam * randers_norm(p, y), rel=1e-10)
