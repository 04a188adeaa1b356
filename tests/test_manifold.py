import numpy as np
import pytest

from randers_foliations.catalog import ExampleSpec, build_example, example_names
from randers_foliations.grid import PeriodicGrid, derivative_values
from randers_foliations.manifold import (
    FoliatedRandersManifold,
    covariant_vector_derivative,
    curvature_bar,
    deformation_tensor,
    extrinsic_bar,
    gradient,
    integrate,
    levi_civita,
)


def flat_manifold(n=16, beta=(0.2, 0.1)):
    grid = PeriodicGrid((n, n), (1.0, 1.0))
    shape = grid.sizes
    a = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    N = np.zeros(shape + (2,))
    N[..., 1] = 1.0
    b = np.broadcast_to(np.asarray(beta), shape + (2,)).copy()
    return FoliatedRandersManifold(grid, a, b, N, name="flat")


def conformal(n=64, mode="generic"):
    return build_example(ExampleSpec("conformal-torus", {"n": n, "beta_mode": mode}))


def test_manifold_validation():
    grid = PeriodicGrid((16, 16), (1.0, 1.0))
    shape = grid.sizes
    a = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    N = np.zeros(shape + (2,))
    N[..., 1] = 2.0  # not unit
    with pytest.raises(ValueError):
        FoliatedRandersManifold(grid, a, np.zeros(shape + (2,)), N)
    N[..., 1] = 1.0
    big_beta = np.zeros(shape + (2,))
    big_beta[..., 0] = 1.0
    with pytest.raises(ValueError):
        FoliatedRandersManifold(grid, a, big_beta, N)
    bad_a = a.copy()
    bad_a[..., 0, 0] = -1.0
    with pytest.raises(ValueError):
        FoliatedRandersManifold(grid, bad_a, np.zeros(shape + (2,)), N)


def test_flat_christoffels_vanish():
    M = flat_manifold()
    gam = levi_civita(M, "spectral")
    assert np.max(np.abs(gam)) == 0.0


def test_conformal_christoffels_closed_form():
    M = conformal()
    gam = levi_civita(M, "spectral")
    x, y = M.grid.meshgrid()
    w = 2 * np.pi
    phi = 0.15 * (np.sin(w * x) * np.cos(w * y) + 0.4 * np.cos(w * x) + 0.3 * np.sin(w * y))
    dp = np.stack(
        [derivative_values(phi, M.grid, ax, "spectral") for ax in range(2)], axis=-1
    )
    exact = np.zeros(M.grid.sizes + (2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                exact[..., i, j, k] = (
                    (i == j) * dp[..., k] + (i == k) * dp[..., j] - (j == k) * dp[..., i]
                )
    assert np.max(np.abs(gam - exact)) < 1e-8


def test_metric_compatibility():
    M = conformal()
    gam = levi_civita(M, "spectral")
    da = np.stack(
        [derivative_values(M.a, M.grid, ax, "spectral") for ax in range(2)], axis=-3
    )
    nabla_a = (
        da
        - np.einsum("...mki,...mj->...kij", gam, M.a)
        - np.einsum("...mkj,...im->...kij", gam, M.a)
    )
    assert np.max(np.abs(nabla_a)) < 1e-8


def test_christoffel_symmetry_lower_indices():
    M = conformal()
    gam = levi_civita(M, "spectral")
    assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-13


def test_christoffel_of_temporary_metrics_are_not_stale():
    # temporaries freed between calls may reuse one another's identity; each
    # call must still return the symbols of the metric it was given.  The
    # conformal factor varies with k, so the five symbol fields all differ.
    M = conformal(n=16)
    bump = np.sin(2 * np.pi * M.grid.meshgrid()[0])
    for k in range(5):
        g = np.exp(0.2 * (k + 1) * bump)[..., None, None] * M.a
        got = levi_civita(M, "spectral", metric=g)
        want = levi_civita(conformal(n=16), "spectral", metric=g)
        assert np.array_equal(got, want), f"metric {k}"
        del g


def test_gradient_stacks_partials_after_grid_axes():
    M = flat_manifold(n=64)
    x, _ = M.grid.meshgrid()
    f = np.sin(2 * np.pi * x)
    grad = gradient(M, f, "spectral")
    assert grad.shape == M.grid.sizes + (2,)
    assert np.array_equal(grad[..., 0], derivative_values(f, M.grid, 0, "spectral"))
    np.testing.assert_allclose(grad[..., 0], 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-11)
    np.testing.assert_allclose(grad[..., 1], 0.0, atol=1e-12)
    # tensor components stay behind the new derivative axis
    assert gradient(M, M.a, "central4").shape == M.grid.sizes + (2, 2, 2)


def test_non_spd_metric_reports_node():
    M = conformal(n=16)
    g = np.broadcast_to(np.eye(2), M.grid.sizes + (2, 2)).copy()
    g[3, 4] = -np.eye(2)
    with pytest.raises(FloatingPointError, match=r"\(3,\s*4\)"):
        levi_civita(M, "spectral", metric=g)


def test_extrinsic_bar_flat_parallel():
    M = build_example(ExampleSpec("flat-parallel", {"n": 12}))
    bar = extrinsic_bar(M, levi_civita(M, "spectral"), "spectral")
    assert np.max(np.abs(bar.Abar)) == 0.0
    assert np.max(np.abs(bar.Zbar)) == 0.0


def test_extrinsic_bar_graph_curvature():
    # leaves y = phi(x) + const: sigma_1(Abar) equals the signed curve curvature
    M = build_example(ExampleSpec("flat-graph", {"n": 128, "amplitude": 0.05}))
    bar = extrinsic_bar(M, levi_civita(M, "spectral"), "spectral")
    x = M.grid.meshgrid()[0]
    w = 2 * np.pi
    amp = 0.05
    dphi = amp * w * (np.cos(w * x) - np.sin(2 * w * x))
    ddphi = amp * w * w * (-np.sin(w * x) - 2 * np.cos(2 * w * x))
    kappa = ddphi / (1 + dphi**2) ** 1.5
    sigma1 = np.einsum("...ii->...", bar.Abar)
    assert np.max(np.abs(sigma1 - kappa)) < 1e-6


def test_abar_self_adjoint():
    # <Abar u, v> is a symmetric bilinear form on the leaf tangent bundle
    M = conformal()
    bar = extrinsic_bar(M, levi_civita(M, "spectral"), "spectral")
    sym = np.einsum("...ki,...kj->...ij", bar.Abar, M.a)
    assert np.max(np.abs(sym - np.swapaxes(sym, -1, -2))) < 1e-10


def test_codazzi_symmetry_for_zbar():
    M = conformal()
    gam = levi_civita(M, "spectral")
    bar = extrinsic_bar(M, gam, "spectral")
    nabZ = covariant_vector_derivative(M, bar.Zbar, gam, "spectral")
    form = np.einsum("...lu,...lv->...uv", nabZ, M.a)
    P = M.tangent_projector
    formt = np.einsum("...ua,...uv,...vb->...ab", P, form, P)
    assert np.max(np.abs(formt - np.swapaxes(formt, -1, -2))) < 1e-6


def test_curvature_flat_zero():
    M = build_example(ExampleSpec("flat-graph", {"n": 32}))
    cur = curvature_bar(M, levi_civita(M, "spectral"), "spectral")
    assert np.max(np.abs(cur.riemann)) == 0.0


def test_curvature_first_bianchi():
    M = conformal()
    R = curvature_bar(M, levi_civita(M, "spectral"), "spectral").riemann
    cyc = (
        R
        + np.moveaxis(R, (-3, -2, -1), (-1, -3, -2))
        + np.moveaxis(R, (-3, -2, -1), (-2, -1, -3))
    )
    assert np.max(np.abs(cyc)) < 1e-7


def test_gauss_bonnet_on_conformal_torus():
    # total Gauss curvature of any metric on T^2 vanishes
    M = conformal()
    cur = curvature_bar(M, levi_civita(M, "spectral"), "spectral")
    assert abs(integrate(M, cur.ricci_N, "a")) < 1e-10


def riccati_residual(M, scheme):
    from randers_foliations.manifold import covariant_operator_derivative

    gam = levi_civita(M, scheme)
    bar = extrinsic_bar(M, gam, scheme)
    cur = curvature_bar(M, gam, scheme)
    P = M.tangent_projector
    defz = deformation_tensor(M, bar.Zbar, gam, scheme)
    defz_t = np.einsum("...il,...lm,...mj->...ij", P, defz, P)
    dNA = covariant_operator_derivative(M, bar.Abar, M.N, gam, scheme)
    dNA = np.einsum("...il,...lm,...mj->...ij", P, dNA, P)
    zf = np.einsum("...ij,...j->...i", M.a, bar.Zbar)
    resid = cur.R_N - (
        defz_t + dNA - bar.Abar @ bar.Abar - np.einsum("...i,...j->...ij", bar.Zbar, zf)
    )
    return np.max(np.abs(resid))


def test_riccati_identity_refinement():
    # order measurement with the finite-difference scheme (spectral is at the
    # roundoff floor already at 32 points for these analytic fields)
    resids = [riccati_residual(conformal(n=n), "central4") for n in (32, 64)]
    assert resids[0] / resids[1] > 8.0
    assert resids[1] < 1e-3
    assert riccati_residual(conformal(n=64), "spectral") < 1e-5


def test_integrate_volumes():
    M = flat_manifold()
    ones = np.ones(M.grid.sizes)
    assert integrate(M, ones, "a") == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        integrate(M, ones, "h")
    # beta = 0: all three volume densities coincide
    M0 = conformal(mode="riemannian")
    np.testing.assert_allclose(M0.volume_density("g"), M0.volume_density("a"), rtol=1e-13)
    np.testing.assert_allclose(M0.volume_density("F"), M0.volume_density("a"), rtol=1e-13)


def test_volume_density_relation_tangent_beta():
    # with beta(N) = 0: dV_g (1 - |beta|^2)^p = dV_F (c chat)^p pointwise
    M = build_example(ExampleSpec("flat-graph-tangent", {"n": 16}))
    p = (M.dim + 1) / 2.0
    lhs = M.volume_density("g") * (1 - M.beta_norm**2) ** p
    rhs = M.volume_density("F") * (M.c * M.chat) ** p
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_divergence_theorem_random_field():
    rng = np.random.default_rng(3)
    M = conformal()
    gam = levi_civita(M, "spectral")
    x, y = M.grid.meshgrid()
    w = 2 * np.pi
    X = np.stack(
        [
            np.sin(w * x + 0.3) * np.cos(w * y) + 0.2 * np.cos(2 * w * y),
            np.cos(w * x) * np.sin(w * y + 1.1),
        ],
        axis=-1,
    )
    div = np.einsum("...ii->...", covariant_vector_derivative(M, X, gam, "spectral"))
    assert abs(integrate(M, div, "a")) < 1e-8


def test_example_catalog_has_all_names():
    assert example_names() == [
        "conformal-torus",
        "flat-graph",
        "flat-graph-tangent",
        "flat-parallel",
        "sphere-latitudes",
    ]
    with pytest.raises(ValueError):
        build_example(ExampleSpec("nosuch"))


def test_flat_parallel_beta_is_parallel():
    M = build_example(ExampleSpec("flat-parallel", {"n": 12}))
    gam = levi_civita(M, "spectral")
    nab = covariant_vector_derivative(M, M.beta_sharp, gam, "spectral")
    assert np.max(np.abs(nab)) < 1e-13


def test_sphere_latitude_mean_curvature():
    M = build_example(ExampleSpec("sphere-latitudes", {"n": 128, "r0": 0.2}))
    bar = extrinsic_bar(M, levi_civita(M, "spectral"), "spectral")
    th = M.grid.meshgrid()[0]
    sigma1 = np.einsum("...ii->...", bar.Abar)
    cot = np.cos(th) / np.where(M.active, np.sin(th), 1.0)
    err = np.abs(sigma1 + cot)[M.active]
    assert err.max() < 1e-10
    # total mean curvature over the excised sphere: the one-dimensional
    # analytic oracle integral of -cot(theta) * 2 pi sin(theta) vanishes
    assert abs(integrate(M, sigma1, "a")) < 1e-12


def test_sphere_rejects_tiny_excision():
    with pytest.raises(ValueError):
        build_example(ExampleSpec("sphere-latitudes", {"n": 64, "r0": 0.01}))


def test_sphere_eigen_normal_curves_are_geodesics():
    M = build_example(ExampleSpec("sphere-latitudes", {"n": 128, "r0": 0.2, "beta_mode": "eigen"}))
    bar = extrinsic_bar(M, levi_civita(M, "central4"), "central4")
    assert np.max(np.abs(np.where(M.active[..., None], bar.Zbar, 0.0))) < 1e-12
