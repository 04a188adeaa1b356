import numpy as np
import pytest

from randers_foliations.catalog import ExampleSpec, build_example
from randers_foliations.extrinsic import ExtrinsicBundle, g_metric_field
from randers_foliations.point import (
    RandersPoint,
    cartan_torsion,
    distortion,
    distortion_closed,
    f_normal,
    fundamental_tensor,
    g_raise,
)
from randers_foliations.manifold import integrate


def bundle(name, scheme="spectral", **params):
    return ExtrinsicBundle(build_example(ExampleSpec(name, params)), scheme)


def sup_active(E, field):
    act = E.M.active
    extra = field.ndim - act.ndim
    return float(np.max(np.abs(np.where(act.reshape(act.shape + (1,) * extra), field, 0.0))))


# -- normal metric field -------------------------------------------------------


def test_g_field_riemannian_reduction():
    E = bundle("conformal-torus", beta_mode="riemannian")
    assert np.max(np.abs(E.g - E.M.a)) < 1e-14


def test_g_field_matches_pointwise_fundamental_tensor():
    # the field-level formulas and the single-point routes of ``point`` agree
    # node by node: g, the normal data, the torsion operator that the verifier
    # runs at a tangent slot (Z) and at a non-tangent one (nabla_n n), the two
    # beta-scalars, the raising on the leaves and both distortion routes
    # (every difference measured at or below 1.8e-15, Csharp_direct on the
    # eigen sphere; the n-level torsion and the beta-scalars at or below 8.9e-16)
    for name, params in (
        ("conformal-torus", {"n": 16}),
        ("conformal-torus", {"n": 16, "beta_mode": "constant-angle"}),
        ("flat-graph-tangent", {"n": 12}),
        ("sphere-latitudes", {"n": 128, "r0": 0.2}),
        ("sphere-latitudes", {"n": 128, "r0": 0.2, "beta_mode": "eigen"}),
    ):
        E = bundle(name, **params)
        M = E.M
        rng = np.random.default_rng(0)
        active = np.argwhere(M.active)
        for row in rng.choice(len(active), 12, replace=False):
            idx = tuple(active[row])
            p = RandersPoint(a=M.a[idx], beta=M.beta[idx])
            nd = f_normal(p, M.N[idx])
            g_pt = fundamental_tensor(p, nd.n)
            assert np.max(np.abs(E.g[idx] - g_pt)) < 1e-12
            assert abs(M.c[idx] - nd.c) < 1e-13
            assert abs(M.chat[idx] - nd.chat) < 1e-13
            np.testing.assert_allclose(M.n_field[idx], nd.n, atol=1e-13)
            frame, cc = E.frame[idx], nd.c * nd.chat
            cols = range(M.m)
            C_nu = [[cc * cartan_torsion(p, nd.n, frame[:, a], frame[:, b], E.Z_direct[idx]) for b in cols]
                    for a in cols]
            np.testing.assert_allclose(E.Csharp_direct[idx], E.G_frame_inv[idx] @ C_nu, rtol=0, atol=1e-13)
            C_n = [[cartan_torsion(p, nd.n, frame[:, a], frame[:, b], E.nabla_n_n[idx]) for b in cols]
                   for a in cols]
            np.testing.assert_allclose(E.Csharp_n_direct_numeric[idx], E.G_frame_inv[idx] @ C_n,
                                       rtol=0, atol=1e-14)
            bst = M.beta_sharp_top[idx]
            assert abs(E.beta_Zbar[idx] - p.inner(bst, E.Zbar[idx])) < 1e-14
            assert abs(E.Abst_beta[idx] - p.inner(E.Abar[idx] @ bst, bst)) < 1e-14
            U = frame @ rng.standard_normal(M.m)  # a tangent vector; frame components are aF^T
            aF = M.a[idx] @ frame
            np.testing.assert_allclose(E.G_frame_inv[idx] @ (aF.T @ U), aF.T @ g_raise(p, nd, U),
                                       rtol=0, atol=1e-13)
            assert abs(E.distortion_nu[idx] - distortion_closed(p, nd.n)) < 1e-13
            assert abs(E.distortion_det_route[idx] - distortion(p, nd.n)) < 1e-13


def test_g_field_normal_beta_closed_form():
    # beta_sharp = f N: g(u,v) = (1+f)(<u,v> + f <N,u><N,v>)
    from randers_foliations.grid import PeriodicGrid
    from randers_foliations.manifold import FoliatedRandersManifold

    grid = PeriodicGrid((16, 16), (1.0, 1.0))
    x, _ = grid.meshgrid()
    shape = grid.sizes
    a = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    N = np.zeros(shape + (2,))
    N[..., 1] = 1.0
    f = 0.3 + 0.1 * np.sin(2 * np.pi * x)
    beta = np.zeros(shape + (2,))
    beta[..., 1] = f
    M = FoliatedRandersManifold(grid, a, beta, N, name="normal-beta")
    g = g_metric_field(M)
    NN = np.einsum("...i,...j->...ij", N, N)
    expected = (1 + f)[..., None, None] * (a + f[..., None, None] * NN)
    assert np.max(np.abs(g - expected)) < 1e-13


def test_g_determinant_identity():
    E = bundle("conformal-torus")
    det_ratio = np.linalg.det(E.g) / np.linalg.det(E.M.a)
    expected = (E.cc) ** (E.M.dim + 1)
    assert np.max(np.abs(det_ratio / expected - 1.0)) < 1e-10


def test_g_restricted_to_leaves_is_leaf_metric():
    E = bundle("flat-graph", n=32)
    # frame Gram matrix of g equals c chat (I - b b^T)
    Gf = np.einsum("...ia,...ij,...jb->...ab", E.frame, E.g, E.frame)
    assert np.max(np.abs(Gf - E.G_frame)) < 1e-12


# -- frames --------------------------------------------------------------------


def test_frames_are_orthonormal_and_tangent():
    for name in ("flat-graph", "flat-graph-tangent", "conformal-torus"):
        E = bundle(name, n=16)
        M = E.M
        gram = np.einsum("...ia,...ij,...jb->...ab", E.frame, M.a, E.frame)
        eye = np.eye(M.m)
        assert np.max(np.abs(gram - eye)) < 1e-12
        nf = np.einsum("...i,...ij,...ja->...a", M.N, M.a, E.frame)
        assert np.max(np.abs(nf)) < 1e-12


def test_frame_roundtrip():
    # vec_to_frame is an isometry on tangent fields: the a-inner product
    # becomes the dot product of frame components
    E = bundle("conformal-torus", n=16)
    rng = np.random.default_rng(1)
    u, v = (E.M.project_tangent(rng.standard_normal(E.M.grid.sizes + (2,))) for _ in range(2))
    ip = np.einsum("...a,...a->...", E.vec_to_frame(u), E.vec_to_frame(v))
    assert np.max(np.abs(ip - E.M.inner(u, v))) < 1e-12


def test_frame_maps_ignore_tangent_projection():
    # F is tangent and a-orthonormal, so F^T a P = F^T a and P F = F: a
    # projection before a frame map changes nothing but roundoff
    cases = (
        ("flat-graph-tangent", {"n": 12}),
        ("conformal-torus", {"n": 16}),
        ("sphere-latitudes", {"n": 64, "r0": 0.2}),
    )
    rng = np.random.default_rng(2)
    for name, params in cases:
        E = bundle(name, **params)
        M = E.M
        d = M.dim
        L = rng.standard_normal(M.grid.sizes + (d, d))
        v = rng.standard_normal(M.grid.sizes + (d,))
        P = M.tangent_projector
        PLP = P @ L @ P
        assert np.max(np.abs(E.op_to_frame(PLP) - E.op_to_frame(L))) < 1e-12, name
        assert np.max(np.abs(E.vec_to_frame(M.project_tangent(v)) - E.vec_to_frame(v))) < 1e-12, name


# -- dual-route comparisons ----------------------------------------------------


def test_shape_operator_routes_agree_flat_parallel():
    E = bundle("flat-parallel", n=12)
    for fld in (E.Ag_direct, E.Ag_formula, E.Ag_printed, E.Z_direct, E.Z_formula):
        assert np.max(np.abs(fld)) < 1e-13
    assert np.max(np.abs(E.Csharp_direct)) < 1e-13


def test_shape_operator_riemannian_reduction():
    E = bundle("conformal-torus", beta_mode="riemannian")
    assert np.max(np.abs(E.Ag_direct - E.Abar_frame)) < 1e-12
    assert np.max(np.abs(E.Z_direct - E.Zbar)) < 1e-12


def test_shape_formula_convergence_flat_graph():
    errs = []
    for n in (32, 64, 128):
        E = bundle("flat-graph", n=n)
        errs.append(np.max(np.abs(E.Ag_formula - E.Ag_direct)))
    assert errs[2] < 1e-8
    assert errs[0] / errs[1] > 100.0 or errs[1] < 1e-11


def test_shape_printed_display_plateaus_for_tilted_beta():
    # the published display misses the normal-tilt factor; its residual does
    # not shrink under refinement wherever beta(N) != 0
    errs = []
    for n in (64, 128):
        E = bundle("flat-graph", n=n)
        errs.append(np.max(np.abs(E.Ag_printed - E.Ag_direct)))
    assert errs[1] > 1e-2
    assert errs[1] / errs[0] > 0.8


def test_shape_printed_equals_corrected_for_tangent_beta():
    E = bundle("flat-graph-tangent", n=16)
    assert np.max(np.abs(E.Ag_printed - E.Ag_formula)) < 1e-12


def test_z_formula_convergence():
    errs = []
    for n in (32, 64):
        E = bundle("conformal-torus", n=n)
        errs.append(np.max(np.abs(E.Z_formula - E.vec_to_frame(E.Z_direct))))
    assert errs[1] < 1e-11


def test_z_formula_normal_beta_specialisation():
    # beta_sharp = f N: Z = chat^-1 Zbar - chat^-2 grad^T f
    from randers_foliations.grid import PeriodicGrid, derivative_values
    from randers_foliations.manifold import FoliatedRandersManifold

    grid = PeriodicGrid((64, 64), (1.0, 1.0))
    x, y = grid.meshgrid()
    shape = grid.sizes
    w = 2 * np.pi
    phi = 0.1 * (np.sin(w * x) + 0.5 * np.cos(w * y))
    e2p = np.exp(2 * phi)
    a = np.zeros(shape + (2, 2))
    a[..., 0, 0] = e2p
    a[..., 1, 1] = e2p
    N = np.stack([np.zeros(shape), np.exp(-phi)], axis=-1)
    f = 0.2 + 0.1 * np.cos(w * x)
    bsharp = f[..., None] * N
    beta = np.einsum("...ij,...j->...i", a, bsharp)
    M = FoliatedRandersManifold(grid, a, beta, N, name="normal-beta", beta_sharp_given=bsharp)
    E = ExtrinsicBundle(M, "spectral")
    df = np.stack([derivative_values(f, grid, ax, "spectral") for ax in range(2)], -1)
    grad_f_tan = M.project_tangent(np.einsum("...ij,...j->...i", M.a_inv, df))
    expected = E.Zbar / E.M.chat[..., None] - grad_f_tan / E.M.chat[..., None] ** 2
    assert np.max(np.abs(E.Z_direct - expected)) < 1e-9
    assert np.max(np.abs(E.Z_formula - E.vec_to_frame(expected))) < 1e-11


def test_csharp_routes_and_scale():
    E = bundle("conformal-torus", n=64)
    assert np.max(np.abs(E.Csharp_formula - E.Csharp_direct)) < 1e-11
    # n-level operator carries the factor c chat relative to the nu-level one
    target = E.cc[..., None, None] * E.Csharp_direct
    assert np.max(np.abs(E.Csharp_n_direct_numeric - target)) < 1e-10
    # and the published chat^3 scaling does not fit
    wrong = E.M.chat[..., None, None] ** 3 * E.Csharp_direct
    assert np.max(np.abs(E.Csharp_n_direct_numeric - wrong)) > 1e-3


def test_csharp_printed_display_disagrees():
    E = bundle("conformal-torus", n=64)
    assert np.max(np.abs(E.Csharp_printed - E.Csharp_direct)) > 1e-2


def test_csharp_vanishes_for_rigid_parallel_beta():
    # parallel beta, constant beta(N), Zbar = 0 force the torsion operator to zero
    E = bundle("flat-parallel", n=12)
    assert np.max(np.abs(E.Csharp_direct)) < 1e-13
    assert np.max(np.abs(E.Csharp_formula)) < 1e-13


def test_full_shape_operator_berwald():
    # Berwald with Zbar = 0 and constant beta(N): A = A^g exactly
    E = bundle("flat-parallel", n=12)
    assert np.max(np.abs(E.A_frame - E.Ag_direct)) < 1e-13


def test_distortion_volume_identity():
    for name in ("flat-graph", "conformal-torus"):
        E = bundle(name, n=32)
        lhs = E.M.volume_density("g")
        rhs = np.exp(E.distortion_nu) * E.M.volume_density("F")
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-9
        assert np.max(np.abs(E.distortion_det_route - E.distortion_nu)) < 1e-9


def test_self_adjointness_of_shape_operators():
    E = bundle("conformal-torus", n=64)
    G = E.G_frame
    for op in (E.Ag_direct, E.A_frame):
        form = np.einsum("...ab,...bc->...ac", G, op)
        assert np.max(np.abs(form - np.swapaxes(form, -1, -2))) < 1e-10


def test_nabla_z_symmetry_for_g():
    from randers_foliations.manifold import covariant_vector_derivative, levi_civita

    E = bundle("conformal-torus", n=64)
    M = E.M
    nabZ = covariant_vector_derivative(M, E.Z_direct, levi_civita(M, "spectral", metric=E.g), "spectral")
    form = np.einsum("...lu,...lv->...uv", nabZ, E.g)
    P = M.tangent_projector
    formt = np.einsum("...ua,...uv,...vb->...ab", P, form, P)
    assert np.max(np.abs(formt - np.swapaxes(formt, -1, -2))) < 1e-10


def test_tangency_of_curvature_vectors():
    E = bundle("flat-graph", n=64)
    gz = np.einsum("...i,...ij,...j->...", E.Z_direct, E.g, E.M.nu_field)
    az = np.einsum("...i,...ij,...j->...", E.Zbar, E.M.a, E.M.N)
    assert np.max(np.abs(gz)) < 1e-10
    assert np.max(np.abs(az)) < 1e-10


def test_berwald_rank_one_decomposition():
    # c A^g = Abar + delta Id + A1 + A2 + A3 pointwise on Berwald examples:
    # exact algebra against the comparison formula, discretization-limited
    # against the direct route
    for name in ("flat-graph", "flat-graph-tangent"):
        E = bundle(name)
        M = E.M
        b = E.b_frame
        U1, U2, a3 = E.rank_one()
        A1 = np.einsum("...a,...b->...ab", b, U1)
        A2 = np.einsum("...a,...b->...ab", U2, b)
        A3 = a3[..., None, None] * np.einsum("...a,...b->...ab", b, b)
        lhs = E.Abar_frame + A1 + A2 + A3 + E.delta[..., None, None] * np.eye(M.m)
        formula = M.c[..., None, None] * E.Ag_formula
        direct = M.c[..., None, None] * E.Ag_direct
        # vs the comparison formula only the discretised derivative of the
        # (analytically parallel) beta field separates the two routes
        assert np.max(np.abs(lhs - formula)) < 1e-9
        assert np.max(np.abs(lhs - direct)) < 1e-5


def test_parallel_tangent_specialisation_display():
    # for parallel beta tangent to the leaves (chat = c) the published
    # specialised display is correct and must match the corrected formula:
    # c A^g = Abar - c^-2 n(c) Id - (1/2)(Abar(bs) + c Zbar)^{perp} (x) beta
    #         + (1/2) c^-2 (Abar(bs) - c Zbar)^{perp,flat} (x) bs
    #         - (beta(Zbar)/(c(1-c^2))) beta (x) bs
    from randers_foliations.grid import derivative_values

    E = bundle("flat-graph-tangent", n=24)
    M = E.M
    c = M.c
    bs = E.b_frame
    dc = np.stack([derivative_values(c, M.grid, ax, "spectral") for ax in range(M.dim)], -1)
    n_c = np.einsum("...i,...i->...", M.n_field, dc)
    Abs = E.Abst_frame
    Zb = E.Zbar_frame
    disp = (
        E.Abar_frame
        - (n_c / c**2)[..., None, None] * np.eye(M.m)
        - 0.5 * np.einsum("...a,...b->...ab", E.perp_beta(Abs + c[..., None] * Zb), bs)
        + 0.5
        / c[..., None, None] ** 2
        * np.einsum("...a,...b->...ab", bs, E.perp_beta(Abs - c[..., None] * Zb))
        - (E.beta_Zbar / (c * (1 - c**2)))[..., None, None]
        * np.einsum("...a,...b->...ab", bs, bs)
    )
    corrected = M.c[..., None, None] * E.Ag_formula
    assert np.max(np.abs(disp - corrected)) < 1e-10


def test_delta_identity_under_parallel_beta():
    E = bundle("flat-graph")
    expected = -(E.M.c * E.beta_Zbar + E.Abst_beta) / (2 * E.M.c**2)
    assert np.max(np.abs(expected - E.delta)) < 1e-10


def test_perp_beta_projection_field():
    E = bundle("flat-graph", n=32)
    out = E.perp_beta(E.vec_to_frame(E.Zbar))
    ip = np.einsum("...a,...a->...", out, E.b_frame)
    assert np.max(np.abs(ip)) < 1e-12
    samebst = E.perp_beta(E.b_frame)
    assert np.max(np.abs(samebst)) < 1e-12


def test_principal_curvatures_real_and_sorted():
    E = bundle("flat-graph-tangent", n=16)
    ks = E.principal_curvatures
    assert ks.shape == E.M.grid.sizes + (E.M.m,)
    assert np.all(np.diff(ks, axis=-1) >= -1e-12)


def test_corrected_trace_identity_field():
    from randers_foliations.grid import derivative_values
    from randers_foliations.manifold import covariant_vector_derivative, levi_civita

    E = bundle("conformal-torus", n=64)
    M = E.M
    nab = covariant_vector_derivative(M, M.beta_sharp, levi_civita(M, "spectral"), "spectral")
    div_bs = np.einsum("...ii->...", nab)
    dchat = np.stack([derivative_values(M.chat, M.grid, ax, "spectral") for ax in range(2)], -1)
    Nchat = np.einsum("...i,...i->...", M.N, dchat)
    rhs = (
        np.einsum("...aa->...", E.op_to_frame(E.Abar))
        + M.m * E.delta
        + div_bs / M.chat
        - Nchat / M.chat
    )
    lhs = M.c * np.einsum("...aa->...", E.Ag_direct)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_normal_metric_reeb():
    # the leaves' total mean curvature vanishes for the normal metric too
    for name, params in (("conformal-torus", {}), ("flat-graph", {})):
        E = bundle(name, **params)
        val = integrate(E.M, np.einsum("...aa->...", E.Ag_direct), "g")
        assert abs(val) < 1e-9


def test_formula_routes_agree_across_parameter_variations():
    # the corrected comparison formulas are not tuned to the catalog defaults
    cases = [
        ("flat-graph", {"amplitude": 0.03, "beta_sharp": (0.15, 0.45)}),
        ("flat-graph", {"amplitude": 0.06, "beta_sharp": (0.5, 0.1)}),
        ("conformal-torus", {"phi_amplitude": 0.25, "eps1": 0.55, "eps2": 0.35}),
        ("conformal-torus", {"phi_amplitude": 0.05, "eps1": 0.1, "eps2": 0.6}),
    ]
    for name, params in cases:
        errs = []
        for n in (48, 96):
            E = bundle(name, n=n, **params)
            errs.append(
                max(
                    np.max(np.abs(E.Ag_formula - E.Ag_direct)),
                    np.max(np.abs(E.Z_formula - E.vec_to_frame(E.Z_direct))),
                    np.max(np.abs(E.Csharp_formula - E.Csharp_direct)),
                )
            )
        assert errs[1] < 1e-7 or errs[0] / errs[1] > 50.0, (name, params, errs)



# -- what a bundle holds and computes ----------------------------------------------


@pytest.fixture(scope="module")
def tangent_point():
    """One flat-graph-tangent sweep point under ``--formulas all``.

    The sweep has one point, so it runs its probe (n = 8) first.  Returns the
    real point's bundle, the arrays that bundle held as each of its stages
    closed (name -> ndim, before the plan dropped any), and every
    covariant_vector_derivative call made while the point was evaluated, as
    (field, connection) pairs.  The calls keep their arguments alive, so
    equal ids mean the same arrays.
    """
    from randers_foliations import extrinsic, manifold, verify

    derivative, end_stage = manifold.covariant_vector_derivative, extrinsic.ExtrinsicBundle.end_stage
    bundles, held, calls = [], {}, []

    def keep_bundle(*args, **kwargs):
        bundles.append(ExtrinsicBundle(*args, **kwargs))
        calls.clear()  # the probe's calls end before the point's bundle is built
        return bundles[-1]

    def note_held(E):
        if E is bundles[-1]:
            held.update((key, v.ndim) for key, v in E.memo.items() if isinstance(v, np.ndarray))
        end_stage(E)

    def record(M, v, gamma, scheme):
        calls.append((v, gamma))
        return derivative(M, v, gamma, scheme)

    fids = [f for f in verify.formula_ids() if not verify.FORMULAS[f].refuted]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "ExtrinsicBundle", keep_bundle)
        mp.setattr(extrinsic.ExtrinsicBundle, "end_stage", note_held)
        for module in (manifold, extrinsic):
            mp.setattr(module, "covariant_vector_derivative", record)
        verify.run_formulas(ExampleSpec("flat-graph-tangent"), fids, [12], "spectral")
    assert [E.M.grid.sizes for E in bundles] == [(8, 8, 8), (12, 8, 8)]  # the probe, then the point
    assert bundles[1].plan == bundles[0].last_reader
    return bundles[1], held, calls


def test_bundle_holds_no_array_wider_than_the_connection(tangent_point):
    # operators carry dim + 2 axes; the Christoffel fields (dim + 3) live only
    # inside the pass that reads them, and no d^4 array is ever held at any stage
    E, held, _ = tangent_point
    assert {"R_N", "Abar", "gamma_N", "nabla_Z_direct"} <= set(held)
    dim = E.M.dim
    assert {name: ndim for name, ndim in held.items() if ndim > dim + 2} == {}
    # the plan drops every field after its last reader
    assert E.memo == {}


def test_bundle_takes_each_covariant_derivative_once(tangent_point):
    *_, calls = tangent_point
    pairs = [(id(v), id(gamma)) for v, gamma in calls]
    assert len(pairs) >= 6
    assert len(set(pairs)) == len(pairs)
