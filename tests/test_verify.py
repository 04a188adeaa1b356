import json

import numpy as np
import pytest

from randers_foliations.catalog import ExampleSpec
from randers_foliations.invariants import (
    newton_transform_batched,
    sigma_k,
    sigma_multi_batched,
)
from randers_foliations.matinv import newton_transform, sigma_multi, sigma_single
from randers_foliations.report import ResidualReport, reports_to_csv, reports_to_json
from randers_foliations.verify import FORMULAS, formula_ids, run_formulas


def by_id(reports, fid):
    return next(r for r in reports if r.formula_id == fid)


# -- batched invariants agree with the scalar reference --------------------------


def test_batched_sigma_matches_scalar():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (4, 5, 3, 3))
    for k in range(4):
        batched = sigma_k(A, k)
        for i in range(4):
            for j in range(5):
                assert batched[i, j] == pytest.approx(sigma_single(A[i, j], k), rel=1e-10, abs=1e-12)


def test_batched_sigma_above_order_is_zero():
    A = np.ones((2, 2, 1, 1))
    assert np.all(sigma_k(A, 2) == 0.0)


def test_batched_sigma_multi_matches_scalar():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (3, 2, 2))
    B = rng.uniform(-1, 1, (3, 2, 2))
    vals = sigma_multi_batched([A, B], (1, 1))
    for i in range(3):
        assert vals[i] == pytest.approx(sigma_multi([A[i], B[i]], (1, 1)), rel=1e-10, abs=1e-12)


def test_batched_newton_matches_scalar():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, (4, 3, 3))
    for r in range(3):
        batched = newton_transform_batched(A, r)
        for i in range(4):
            np.testing.assert_allclose(batched[i], newton_transform(A[i], r), atol=1e-12)


# -- runner behaviour -------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_graph_reports():
    return run_formulas(ExampleSpec("flat-graph"), formula_ids(), [48, 64], "spectral")


@pytest.fixture(scope="module")
def conformal_reports():
    return run_formulas(ExampleSpec("conformal-torus"), formula_ids(), [48, 64], "spectral")


def test_hypothesis_gates_mark_not_applicable(conformal_reports):
    # generic beta is not parallel: the Berwald family must be gated out
    r = by_id(conformal_reports, "berwald-sigma-k1")
    assert r.verdict == "not-applicable"
    assert r.hypotheses["sup_nabla_beta"] > 1e-3


def test_gates_record_measured_residuals(flat_graph_reports):
    r = by_id(flat_graph_reports, "berwald-sigma-k1")
    assert r.verdict == "pass"
    assert r.hypotheses["sup_nabla_beta"] < 1e-12
    assert r.hypotheses["sup_riemann"] < 1e-12


def test_corrected_formulas_pass_on_flat_graph(flat_graph_reports):
    for fid in (
        "reeb-riemannian",
        "reeb-weighted",
        "reeb-finsler",
        "reeb-normal-metric",
        "sigma-flat-k1",
        "curvature-series-k1",
        "berwald-sigma-k1",
        "shape-comparison",
        "z-comparison",
        "csharp-comparison",
        "csharp-scale",
        "trace-comparison",
        "volume-distortion",
        "energy-bound",
    ):
        assert by_id(flat_graph_reports, fid).verdict == "pass", fid


def test_published_displays_fail_where_refuted(flat_graph_reports, conformal_reports):
    assert by_id(flat_graph_reports, "shape-comparison-printed").verdict == "fail"
    assert by_id(flat_graph_reports, "csharp-comparison-printed").verdict == "fail"
    assert by_id(flat_graph_reports, "parallel-second-order-printed").verdict == "fail"
    r = by_id(conformal_reports, "tilt-balance-printed")
    assert r.verdict == "fail"
    # the failure is a converged plateau, not discretization noise
    assert r.detail["convergence_ratio"] == pytest.approx(1.0, abs=1e-3)
    assert r.residual == pytest.approx(7.965e-4, rel=1e-2)


def test_series_matches_finsler_reeb(flat_graph_reports):
    series = by_id(flat_graph_reports, "curvature-series-k1")
    reeb = by_id(flat_graph_reports, "reeb-finsler")
    assert series.value == pytest.approx(reeb.value, abs=1e-12)


def test_convergence_tables_recorded(flat_graph_reports):
    r = by_id(flat_graph_reports, "shape-comparison")
    assert len(r.convergence) == 2
    assert r.convergence[0][0] > r.convergence[1][0]


def test_unknown_formula_raises():
    with pytest.raises(ValueError):
        run_formulas(ExampleSpec("flat-graph"), ["nosuch"], [48], "spectral")
    with pytest.raises(ValueError):
        run_formulas(ExampleSpec("flat-graph"), ["reeb-riemannian"], [], "spectral")


def test_jobs_do_not_change_results():
    seq = run_formulas(ExampleSpec("flat-graph"), ["reeb-riemannian", "shape-comparison"], [32, 48], "spectral")
    par = run_formulas(
        ExampleSpec("flat-graph"), ["reeb-riemannian", "shape-comparison"], [32, 48], "spectral", jobs=2
    )
    assert reports_to_json(seq) == reports_to_json(par)


def test_singular_sweep_uses_r0_ladder():
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"r0_sweep": [0.2, 0.1]}),
        ["reeb-finsler", "reeb-riemannian"],
        [128],
        "spectral",
    )
    r = by_id(reports, "reeb-finsler")
    assert r.verdict == "pass"
    assert [h for h, _ in r.convergence] == [0.2, 0.1]
    # the excision truncation shrinks with the excised radius
    assert r.convergence[0][1] > r.convergence[1][1]


def test_eigen_sphere_balance_checks():
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"beta_mode": "eigen", "r0_sweep": [0.2, 0.1]}),
        formula_ids(),
        [128],
        "central4",
    )
    assert by_id(reports, "eigen-balance").verdict == "pass"
    assert by_id(reports, "tilt-balance-const-printed").verdict == "pass"
    assert by_id(reports, "eigen-balance").detail["eigenfield_residual"] < 1e-9
    # derivative-route comparisons are not defined for the singular beta
    assert by_id(reports, "shape-comparison").verdict == "not-applicable"


def test_energy_equality_on_flat_parallel():
    reports = run_formulas(ExampleSpec("flat-parallel"), ["energy-bound"], [12, 16], "spectral")
    r = reports[0]
    assert r.verdict == "pass"
    assert r.value == pytest.approx(0.0, abs=1e-10)  # margin zero: equality case
    assert r.detail["energy"] == pytest.approx((2 + 1) / 2 * r.detail["vol_F"], rel=1e-12)


def test_umbilicity_bound_not_applicable_without_negative_ricci():
    reports = run_formulas(ExampleSpec("flat-parallel"), ["umbilicity-bound"], [12], "spectral")
    assert reports[0].verdict == "not-applicable"


def test_vanishing_conclusions():
    reports = run_formulas(
        ExampleSpec("flat-graph-tangent"), ["vanishing-parallel"], [16, 24], "spectral"
    )
    r = reports[0]
    assert r.verdict == "pass"
    assert r.residual < 1e-8


# -- report serialization ----------------------------------------------------------


def test_report_round_trip_and_determinism(flat_graph_reports):
    text1 = reports_to_json(flat_graph_reports, {"example": "flat-graph"})
    text2 = reports_to_json(list(reversed(flat_graph_reports)), {"example": "flat-graph"})
    assert text1 == text2  # ordering is canonical
    payload = json.loads(text1)
    assert payload["schema_version"] == 1
    assert all(
        rec["verdict"] in ("pass", "fail", "not-applicable") for rec in payload["reports"]
    )
    csv_text = reports_to_csv(flat_graph_reports)
    assert csv_text.splitlines()[0] == "formula_id,example,resolution,residual,verdict"
    assert len(csv_text.splitlines()) == len(flat_graph_reports) + 1


def test_report_rejects_bad_verdict():
    with pytest.raises(ValueError):
        ResidualReport(
            formula_id="x",
            example="y",
            resolution=(8,),
            scheme="spectral",
            value=0.0,
            expected=0.0,
            tolerance=1.0,
            verdict="maybe",
        )


def test_formula_registry_descriptions():
    from randers_foliations.cli import _resolve_formulas
    from randers_foliations.verify import PREDICATES

    for fid in formula_ids():
        f = FORMULAS[fid]
        assert f.description
        assert f.kind in ("zero", "sup", "bound")
        assert set(f.requires) | set(f.any_of) <= set(PREDICATES), fid
    assert _resolve_formulas("all") == [f for f in formula_ids() if not FORMULAS[f].refuted]
    assert _resolve_formulas("full") == formula_ids()


def test_first_order_expansion_matches_closed_display_pointwise():
    # the k = 1 Newton-transform expansion collapses to the closed display
    # c tr C# + m delta + a3 (1 - c^2) because the perp-beta pieces are
    # traceless; checked pointwise before integration
    from randers_foliations.catalog import build_example
    from randers_foliations.extrinsic import build_extrinsic
    from randers_foliations.invariants import trace
    from randers_foliations.manifold import integrate

    E = build_extrinsic(build_example(ExampleSpec("flat-graph", {"n": 48})), "spectral")
    m = E.M.m
    closed = (
        E.c * trace(E.Csharp_formula)
        + m * E.delta
        + E.a3_printed * (1.0 - E.c**2)
    )
    # reassemble the same integrand the printed k = 1 evaluator integrates
    b = E.b_frame
    U1 = E.vec_to_frame(E.U1_printed)
    U2 = E.vec_to_frame(E.U2_printed)
    pieces = (
        m * E.delta
        + E.c * trace(E.Csharp_formula)
        + np.einsum("...a,...a->...", b, U1)
        + np.einsum("...a,...a->...", b, U2)
        + E.a3_printed * (1.0 - E.c**2)
    )
    assert np.max(np.abs(pieces - closed)) < 1e-10
    # and both reproduce the registry evaluator's value
    val, _, _ = FORMULAS["berwald-sigma-k1-printed"].evaluate(E, {})
    assert val == pytest.approx(integrate(E.M, closed, "a"), abs=1e-12)
