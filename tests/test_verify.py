import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from randers_foliations.catalog import EXAMPLES, ExampleError, ExampleSpec, build_example
from randers_foliations.extrinsic import ExtrinsicBundle
from randers_foliations.invariants import newton_transform_batched, sigma_k
from randers_foliations.matinv import (
    newton_transform,
    sigma_multi,
    sigma_single,
    sigma_via_determinant,
)
from randers_foliations.manifold import integrate
from randers_foliations.report import ResidualReport, reports_to_csv, reports_to_json
from randers_foliations.verify import (
    BOUND_TOL,
    FORMULAS,
    GATES,
    SINGULAR_POLICY,
    SMOOTH_POLICY,
    _judge,
    formula_ids,
    hypothesis_profile,
    run_formulas,
)


def by_id(reports, fid):
    return next(r for r in reports if r.formula_id == fid)


# -- batched invariants agree with the scalar reference --------------------------


def test_batched_sigma_matches_scalar():
    # against the determinant oracle, which shares no code with the Faddeev-LeVerrier recursion
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (4, 5, 3, 3))
    for k in range(4):
        batched = sigma_k(A, k)
        for i in range(4):
            for j in range(5):
                ref = sigma_via_determinant([A[i, j]], (k,))
                assert batched[i, j] == pytest.approx(ref, rel=1e-10, abs=1e-12)
                assert sigma_single(A[i, j], k) == pytest.approx(batched[i, j], rel=1e-14, abs=1e-15)


def test_batched_sigma_above_order_is_zero():
    A = np.ones((2, 2, 1, 1))
    assert np.all(sigma_k(A, 2) == 0.0)


def test_batched_sigma_multi_matches_scalar():
    # the Berwald rows' identity: sum_{j>=1} sigma_(n-j,j)(X, Y) = sigma_n(X + Y) - sigma_n(X)
    rng = np.random.default_rng(1)
    for m in (2, 3):
        X, Y = rng.uniform(-1, 1, (2, 3, m, m))
        for n in range(1, m + 1):
            vals = sigma_k(X + Y, n) - sigma_k(X, n)
            for i in range(3):
                ref = sum(sigma_multi([X[i], Y[i]], (n - j, j)) for j in range(1, n + 1))
                assert vals[i] == pytest.approx(ref, rel=1e-12, abs=1e-14), (m, n)


def test_batched_newton_matches_scalar():
    # against the closed form T_r = sum_i (-1)^i sigma_{r-i}(A) A^i, sigma from the oracle
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, (4, 3, 3))
    for r in range(4):
        batched = newton_transform_batched(A, r)
        for n in range(4):
            ref = sum(
                (-1) ** i * sigma_via_determinant([A[n]], (r - i,)) * np.linalg.matrix_power(A[n], i)
                for i in range(r + 1)
            )
            np.testing.assert_allclose(batched[n], ref, atol=1e-12)
            np.testing.assert_allclose(newton_transform(A[n], r), batched[n], rtol=1e-14, atol=1e-15)


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
    assert r.gates["berwald"][0] > 1e-3


def test_gates_record_measured_residuals(flat_graph_reports):
    r = by_id(flat_graph_reports, "berwald-sigma-k1")
    assert r.verdict == "pass"
    assert r.gates["berwald"][0] < 1e-12
    assert r.gates["flat"][0] < 1e-12


def _gates_explain_verdict(r):
    """A not-applicable entry has a failed required gate or no held any-of gate; an applicable one neither."""
    f = FORMULAS[r.formula_id]
    assert set(r.gates) == set(f.requires) | set(f.any_of)
    failed = [g for g in f.requires if not r.gates[g][2]]
    if f.any_of and not any(r.gates[g][2] for g in f.any_of):
        failed += list(f.any_of)
    return bool(failed) == (r.verdict == "not-applicable")


def test_every_verdict_is_explained_by_its_gates(flat_graph_reports, conformal_reports):
    reports = flat_graph_reports + conformal_reports
    assert any(r.verdict == "not-applicable" for r in reports)
    assert all(_gates_explain_verdict(r) for r in reports)


def test_masked_run_names_the_failed_gate():
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"r0": 0.3}), ["second-order-riemannian", "sigma-flat-k1"], [128]
    )
    r = by_id(reports, "second-order-riemannian")
    assert r.verdict == "not-applicable"
    assert r.gates == {"unmasked": [1.0, 0.0, False]}
    # the curvature is not formed on an excised run: the flatness gate is unmeasured and fails
    flat = by_id(reports, "sigma-flat-k1").gates["flat"]
    assert flat == [None, 1e-7, False]
    entry = next(e for e in json.loads(reports_to_json(reports))["reports"] if e["formula_id"] == "sigma-flat-k1")
    assert entry["gates"]["flat"] == [None, 1e-7, False] and "expected" not in entry
    assert all(_gates_explain_verdict(r) for r in reports)


def test_energy_bound_is_not_applicable_where_the_ricci_term_is_not_formed():
    # beta = 0 is parallel, so berwald holds on the excised sphere; an excised run forms no
    # curvature, so the bound's Ricci term is unknown there and the row does not apply
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"eps": 0.0}), ["energy-bound"], EXAMPLES["sphere-latitudes"].resolutions
    )
    r = by_id(reports, "energy-bound")
    assert r.verdict == "not-applicable"
    assert r.gates["berwald"][2] and r.gates["unmasked"] == [1.0, 0.0, False]


def test_no_array_is_differentiated_twice_along_one_axis(monkeypatch):
    # every check of --formulas full, on the probe and the point: a derivative that two
    # stages read is one memo entry
    import randers_foliations.manifold as manifold

    calls = []
    derivative = manifold.derivative_values

    def spy(values, grid, axis, scheme):
        calls.append((np.ascontiguousarray(values).tobytes(), values.shape, axis))
        return derivative(values, grid, axis, scheme)

    monkeypatch.setattr(manifold, "derivative_values", spy)
    run_formulas(ExampleSpec("conformal-torus"), formula_ids(), [32])
    repeated = [(shape, axis) for (_, shape, axis), n in Counter(calls).items() if n > 1]
    assert calls and repeated == []


def test_leaf_dimension_is_a_gate(flat_graph_reports):
    # flat-graph has 1D leaves: sigma_2 rows fail the leaf-dimension gate alone
    r = by_id(flat_graph_reports, "sigma-flat-k2")
    assert r.verdict == "not-applicable"
    assert r.gates["two-dim-leaves"] == [1, 2, False]
    f = FORMULAS["sigma-flat-k2"]
    assert [g for g in f.requires if not r.gates[g][2]] == ["two-dim-leaves"]
    assert "berwald" in f.requires and r.gates["berwald"][2]


def test_hypotheses_measure_only_the_selected_gates_keys(monkeypatch):
    import randers_foliations.verify as verify

    measured = []
    profile = verify.hypothesis_profile

    def spy(E, mask, names):
        measured.append((mask.shape, profile(E, mask, names)))
        return measured[-1][1]

    monkeypatch.setattr(verify, "hypothesis_profile", spy)
    reports = run_formulas(ExampleSpec("flat-graph"), ["shape-comparison"], [16])
    # a sweep measures its probe (n = 8) first, then its point, on the same gates
    names = {"smooth-beta", "singular"}
    assert [(shape, set(hyp)) for shape, hyp in measured] == [((8, 8), names), ((16, 8), names)]
    assert reports[0].gates == {"smooth-beta": [0.0, 0.0, True]}


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


UNREFUTED = [f for f in formula_ids() if not FORMULAS[f].refuted]
RELEASE_RES = [8, 12, 16]


def test_sweep_points_repeat_one_release_record(released_sweep):
    # every point drops its fields by the record of the sweep's probe; the
    # probe has none and keeps every field to its end
    reports, bundles, _ = released_sweep
    records = [bundle.last_reader for bundle in bundles]
    assert len(records) == 4 and records[0] and records[0] == records[1] == records[2] == records[3]
    assert [bundle.plan for bundle in bundles] == [{}, records[0], records[0], records[0]]
    again = run_formulas(ExampleSpec("flat-graph-tangent"), UNREFUTED, RELEASE_RES, "spectral")
    assert reports_to_json(again) == reports_to_json(reports)


def test_singular_sweep_uses_r0_ladder():
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"r0": [0.2, 0.1]}),
        ["reeb-finsler", "reeb-riemannian"],
        [128],
        "spectral",
    )
    r = by_id(reports, "reeb-finsler")
    assert r.verdict == "pass"
    assert [h for h, _ in r.convergence] == [0.2, 0.1]
    # the excision truncation shrinks with the excised radius
    assert r.convergence[0][1] > r.convergence[1][1]


def test_each_sweep_point_is_built_once(monkeypatch):
    from randers_foliations import verify

    built = []

    def counting_build(spec):
        built.append(spec)
        return build_example(spec)

    build_example = verify.build_example
    monkeypatch.setattr(verify, "build_example", counting_build)
    # two or more points: the probe at n = 8, then each point once
    run_formulas(ExampleSpec("flat-graph"), ["reeb-riemannian"], [16, 24], "spectral")
    assert [s.params["n"] for s in built] == [8, 16, 24]
    built.clear()
    # a torus at one size: its probe at n = 8, then the point
    run_formulas(ExampleSpec("flat-graph"), ["reeb-riemannian"], [16], "spectral")
    assert [s.params["n"] for s in built] == [8, 16]
    built.clear()
    # the excised sweep is one point: its probe at n = 32 and r0 = 0.4, then the
    # point, built once, at its smallest radius
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"r0": (0.3, 0.2)}), ["reeb-riemannian"], [64]
    )
    assert [(s.params["r0"], s.params["n"]) for s in built] == [(0.4, 32), (0.2, 64)]
    assert [r0 for r0, _ in reports[0].convergence] == [0.3, 0.2]


SWEEP_RADII = (0.3, 0.2, 0.1)


def _bits(x):
    if isinstance(x, (dict, list)):
        return {k: _bits(v) for k, v in (x.items() if isinstance(x, dict) else enumerate(x))}
    return x if x is None or isinstance(x, bool) else float(x).hex()


@pytest.mark.parametrize("mode", ["rotational", "eigen"])
def test_each_radius_is_judged_as_its_own_build(mode):
    # the one build at the smallest radius, judged on each radius's mask, gives
    # every convergence entry of a one-point run at that radius bit for bit
    def run(params):
        spec = ExampleSpec("sphere-latitudes", {"beta_mode": mode, **params})
        return {r.formula_id: r for r in run_formulas(spec, formula_ids(), [128])}

    sweep = run({"r0": SWEEP_RADII})
    alone = {r0: run({"r0": r0}) for r0 in SWEEP_RADII}
    entries = 0
    for fid, r in sweep.items():
        for r0, resid in r.convergence:
            assert alone[r0][fid].convergence == [(r0, resid)], (fid, r0)
            assert _bits(alone[r0][fid].convergence[0][1]) == _bits(resid)
            entries += 1
        assert _bits(r.value) == _bits(alone[0.1][fid].value), fid
        assert _bits(r.gates) == _bits(alone[0.1][fid].gates)
    assert entries >= 3 * 10


def test_repeated_radius_is_swept_once():
    twice = run_formulas(ExampleSpec("sphere-latitudes", {"r0": (0.3, 0.3)}), UNREFUTED, [128])
    once = run_formulas(ExampleSpec("sphere-latitudes", {"r0": 0.3}), UNREFUTED, [128])
    assert reports_to_json(twice) == reports_to_json(once)


def test_each_check_is_formed_once_per_sweep_point(monkeypatch):
    # the three radii share one build, and each check forms its field once
    # and reduces it on every radius's mask; the probe forms each of its own once
    import dataclasses
    from collections import Counter

    from randers_foliations import verify

    calls = Counter()

    def counted(formula):
        def evaluate(E):
            calls[E.M.grid.sizes, formula.fid] += 1
            return formula.evaluate(E)

        return dataclasses.replace(formula, evaluate=evaluate)

    monkeypatch.setattr(verify, "FORMULAS", {fid: counted(f) for fid, f in FORMULAS.items()})
    reports = run_formulas(ExampleSpec("sphere-latitudes", {"r0": SWEEP_RADII}), formula_ids(), [128])
    judged = [r.formula_id for r in reports if len(r.convergence) == len(SWEEP_RADII)]
    assert len(judged) >= 10
    per_bundle = {sizes: {fid for s, fid in calls if s == sizes} for sizes, _ in calls}
    assert set(per_bundle) == {(32, 8), (128, 8)}, calls      # the probe and the point
    assert set(judged) <= per_bundle[128, 8] == per_bundle[32, 8]
    assert set(calls.values()) == {1}, calls


def test_unresolved_radius_fails_before_any_build(monkeypatch):
    from randers_foliations import verify

    built = []
    monkeypatch.setattr(verify, "build_example", built.append)
    # 0.1 and 0.05 both fail at n = 64; the error names the one that binds
    with pytest.raises(ExampleError, match=r"radius 0\.05 .* n = 64; the smallest n that admits it is 252$"):
        run_formulas(ExampleSpec("sphere-latitudes"), ["reeb-riemannian"], [64])
    assert built == []


def test_radius_sweep_peak_matches_one_point():
    import tracemalloc

    def peak(params):
        tracemalloc.start()
        try:
            run_formulas(ExampleSpec("sphere-latitudes", params), UNREFUTED, [128])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak({"r0": SWEEP_RADII[-1]})
    sweep = peak({"r0": SWEEP_RADII})
    # every stage runs at each radius before the next stage: measured 0.99
    assert sweep <= 1.05 * one, (sweep, one)


def test_sweep_points_do_not_outlive_their_evaluation(monkeypatch):
    import gc
    import weakref

    from randers_foliations import verify

    built = []

    def tracking_build(spec):
        gc.collect()
        alive = [ref() is not None for ref in built]
        M = build_example(spec)
        built.append(weakref.ref(M))
        assert not any(alive), "an earlier sweep point's manifold is still referenced"
        return M

    build_example = verify.build_example
    monkeypatch.setattr(verify, "build_example", tracking_build)
    run_formulas(ExampleSpec("flat-graph"), ["reeb-riemannian"], [16, 24, 32], "spectral")
    assert len(built) == 4   # the probe and three points


def _traced_run(spec, fids, resolutions, scheme="spectral"):
    """``run_formulas``'s reports, each bundle it built (the sweep's probe
    first), and the number of Levi-Civita connections each formed."""
    from randers_foliations import extrinsic, verify

    build, levi_civita = verify.ExtrinsicBundle, extrinsic.levi_civita
    bundles, connections = [], []

    def keep_bundle(*args, **kwargs):
        bundles.append(build(*args, **kwargs))
        connections.append(0)
        return bundles[-1]

    def counting_levi_civita(*args, **kwargs):
        connections[-1] += 1
        return levi_civita(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "ExtrinsicBundle", keep_bundle)
        mp.setattr(extrinsic, "levi_civita", counting_levi_civita)
        reports = run_formulas(spec, fids, resolutions, scheme)
    return reports, bundles, connections


def _assert_release_is_exact(reports, bundle):
    """Every applicable value is bit-identical to one from a fresh unplanned bundle of ``bundle``'s manifold."""
    fresh = ExtrinsicBundle(bundle.M, bundle.scheme)
    applicable = [r for r in reports if r.verdict != "not-applicable"]
    for r in applicable:
        (value, detail), = FORMULAS[r.formula_id].values(fresh, [fresh.M.active])
        assert r.value.hex() == float(value).hex(), r.formula_id
        assert {k: r.detail[k] for k in detail} == detail, r.formula_id
    return len(applicable)


@pytest.fixture(scope="module")
def released_sweep():
    """A three-point flat-graph-tangent sweep of every non-refuted check.

    Returns its reports, the bundle of its probe and of each point, and the
    number of Levi-Civita connections each formed.
    """
    return _traced_run(ExampleSpec("flat-graph-tangent"), UNREFUTED, RELEASE_RES)


def test_release_is_exact(released_sweep):
    reports, bundles, connections = released_sweep
    # a field dropped after its last reader is never formed again
    assert connections == [2, 2, 2, 2]
    assert _assert_release_is_exact(reports, bundles[-1]) >= 25


def test_every_point_of_a_sweep_follows_its_probe(released_sweep):
    # the first point too: it drops each field after the probe's last reader,
    # holds no field at its end, and forms each Levi-Civita connection once
    _, (probe, *points), connections = released_sweep
    assert len(points) == len(RELEASE_RES) and probe.M.grid.sizes == (8, 8, 8)
    for point, formed in zip(points, connections[1:]):
        assert point.plan == probe.last_reader
        assert point.memo == {}
        assert formed == 2


def test_release_lowers_the_peak(released_sweep):
    import tracemalloc

    from randers_foliations.verify import _sweep_point

    _, bundles, _ = released_sweep
    # after its last check, a point that follows the plan holds no field
    assert bundles[-1].memo == {}
    specs = [ExampleSpec("flat-graph-tangent", {"n": n}) for n in RELEASE_RES]
    plan = _sweep_point(specs[0], None, UNREFUTED, "spectral")[-1]
    tracemalloc.start()
    try:
        _sweep_point(specs[-1], None, UNREFUTED, "spectral")
        unreleased = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _sweep_point(specs[-1], None, UNREFUTED, "spectral", plan)
        released = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 0.72 at 16^3 and at 48^3; without a plan a point keeps every field to its end
    assert released < 0.8 * unreleased, (released, unreleased)


def test_coordinate_checks_run_first_and_lower_the_peak(monkeypatch):
    import tracemalloc

    from randers_foliations import verify

    # a renamed row would silently drop out of the order
    assert [fid for fid in verify._COORDINATE_FIRST if fid not in FORMULAS] == []
    specs = [ExampleSpec("flat-graph-tangent", {"n": n}) for n in (8, 16)]

    def peak():
        plan = verify._sweep_point(specs[0], None, UNREFUTED, "spectral")[-1]
        tracemalloc.start()
        try:
            verify._sweep_point(specs[1], None, UNREFUTED, "spectral", plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ordered = peak()
    monkeypatch.setattr(verify, "_COORDINATE_FIRST", ())
    table_order = peak()
    # measured 0.78 at 16^3, 24^3 and 32^3: the coordinate (d, d) fields die before the frame checks
    assert ordered < 0.85 * table_order, (ordered, table_order)


# every catalog configuration: (example, params, cheap resolutions)
CONFIGURATIONS = [
    ("flat-graph-tangent", {}, [12, 16]),
    ("flat-graph", {}, [16, 24]),
    ("flat-parallel", {}, [12, 16]),
    ("sphere-latitudes", {"beta_mode": "rotational", "r0": (0.2, 0.1)}, [128]),
    ("sphere-latitudes", {"beta_mode": "eigen", "r0": (0.2, 0.1)}, [128]),
    ("conformal-torus", {"beta_mode": "generic"}, [16, 24]),
    ("conformal-torus", {"beta_mode": "constant-angle"}, [16, 24]),
    ("conformal-torus", {"beta_mode": "riemannian"}, [16, 24]),
]


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("name, params, resolutions", CONFIGURATIONS,
                         ids=[f"{n}-{p.get('beta_mode', 'default')}" for n, p, _ in CONFIGURATIONS])
def test_the_release_plan_does_not_depend_on_the_grid(name, params, resolutions, scheme):
    # a stage's reads follow the code path, not the grid: the probe's record is
    # every point's own, so the plan it gives the sweep is exact
    from randers_foliations.catalog import sweep_points
    from randers_foliations.verify import _sweep_point

    spec = ExampleSpec(name, params)
    probe, points = sweep_points(spec, resolutions)
    assert all(probe.params["n"] < point.params["n"] for point, _ in points)
    record = _sweep_point(probe, None, formula_ids(), scheme)[-1]
    _, bundles, _ = _traced_run(spec, formula_ids(), resolutions, scheme)
    assert len(bundles) == 1 + len(points)   # the probe, then two torus points or the sphere's one
    assert [bundle.last_reader for bundle in bundles] == [record] * len(bundles)
    # every planned point drops each field after its last reader and ends empty
    assert [bundle.memo for bundle in bundles[1:]] == [{}] * len(points)


def _fail_the_next_build(monkeypatch, error):
    """Make the next ``build_example`` of ``verify`` (the sweep's probe) raise ``error``."""
    from randers_foliations import verify

    build, failed = verify.build_example, []

    def build_example(spec):
        if not failed:
            failed.append(spec)
            raise error("the probe cannot be built")
        return build(spec)

    monkeypatch.setattr(verify, "build_example", build_example)
    return failed


@pytest.mark.parametrize("name, params, resolutions", [
    ("sphere-latitudes", {"r0": (0.2, 0.1)}, [128]),
    ("flat-graph-tangent", {}, [16]),
])
def test_a_one_point_sweep_releases_as_a_later_point_does(name, params, resolutions, monkeypatch):
    import tracemalloc

    spec = ExampleSpec(name, params)
    reports, bundles, connections = _traced_run(spec, UNREFUTED, resolutions)
    probe, point = bundles
    assert probe.M.grid.sizes < point.M.grid.sizes and probe.plan == {}
    assert point.plan == probe.last_reader == point.last_reader
    # after its last check the point holds no field, and it formed each connection once
    assert point.memo == {}
    assert connections[1] == 2
    assert _assert_release_is_exact(reports, point) >= 10

    def peak():
        tracemalloc.start()
        try:
            run_formulas(spec, UNREFUTED, resolutions)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the run above has imported every module the sweep uses, so neither peak counts imports
    planned = peak()
    _fail_the_next_build(monkeypatch, ExampleError)
    unplanned = peak()
    # measured 0.73 at sphere n = 128, 0.74 at n = 384 and 0.75 at 16^3
    assert planned < 0.8 * unplanned, (planned, unplanned)


@pytest.mark.parametrize("error", [ExampleError, FloatingPointError])
def test_a_probe_that_raises_leaves_the_point_unplanned(error, monkeypatch):
    # the point runs as if it had no probe, and raises its own error if any
    # (test_cli's underflow-traceback case names the point's sizes, not the probe's)
    spec = ExampleSpec("flat-graph-tangent")
    planned = reports_to_json(run_formulas(spec, formula_ids(), [12]))
    failed = _fail_the_next_build(monkeypatch, error)
    reports, bundles, _ = _traced_run(spec, formula_ids(), [12])
    assert [s.params["n"] for s in failed] == [8]
    assert [(bundle.M.grid.sizes, bundle.plan) for bundle in bundles] == [((12, 8, 8), {})]
    assert reports_to_json(reports) == planned


def test_eigen_sphere_balance_checks():
    reports = run_formulas(
        ExampleSpec("sphere-latitudes", {"beta_mode": "eigen", "r0": [0.2, 0.1]}),
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


# -- a 3D field that varies along every axis ---------------------------------------


def _conformal_three_torus(n):
    """a = e^{2 phi} I on the unit 3-torus, phi, N and every component of beta_sharp
    varying in x, y and z; the leaves are the level sets of
    z + 0.08 sin(2 pi x) cos(2 pi y + 0.2)."""
    from randers_foliations.grid import PeriodicGrid
    from randers_foliations.manifold import FoliatedRandersManifold

    grid = PeriodicGrid((n, n, n), (1.0, 1.0, 1.0))
    x, y, z = grid.meshgrid()
    w = 2.0 * np.pi
    phi = 0.2 * (np.sin(w * x) * np.cos(w * y) + 0.4 * np.cos(w * z + 0.1) + 0.3 * np.sin(w * (y + z)))
    a = np.exp(2.0 * phi)[..., None, None] * np.eye(3)
    df = np.stack([0.08 * w * np.cos(w * x) * np.cos(w * y + 0.2),
                   -0.08 * w * np.sin(w * x) * np.sin(w * y + 0.2), np.ones_like(x)], axis=-1)
    N = np.exp(-phi)[..., None] * df / np.linalg.norm(df, axis=-1, keepdims=True)
    bsharp = np.exp(-phi)[..., None] * np.stack([0.3 * np.sin(w * x + 0.7) * np.cos(w * y),
                                                 0.25 * np.cos(w * x) * np.sin(w * z + 0.3),
                                                 0.2 * np.sin(w * y) * np.cos(w * z + 0.5)], axis=-1)
    beta = np.einsum("...ij,...j->...i", a, bsharp)
    return FoliatedRandersManifold(grid, a, beta, N, name="conformal-3-torus", beta_sharp_given=bsharp)


# residuals measured at 16^3, 24^3 and 32^3 (spectral)
_DECAY_3D = {
    "shape-comparison": (1.09e-3, 9.24e-6, 5.23e-8),
    "z-comparison": (1.63e-3, 1.09e-5, 6.34e-8),
    "csharp-comparison": (2.43e-4, 1.33e-6, 8.40e-9),
    "codazzi-symmetry-g": (2.68e-2, 2.12e-4, 2.95e-6),
    "riccati-identity": (3.08e-2, 3.24e-4, 2.15e-6),
}
# measured at 32^3: 6.9e-18, 3.5e-18, 6.9e-18 and 0
_ROUNDOFF_3D = ("reeb-riemannian", "reeb-weighted", "reeb-normal-metric", "second-order-riemannian")


def test_identities_converge_on_a_field_varying_along_every_axis():
    # the only catalog 3D example varies along x alone; here every y and z
    # derivative, the mixed Riemann slices and the cross terms of both
    # connections and of the frames are exercised
    fids = list(_DECAY_3D) + list(_ROUNDOFF_3D)
    names = {g for fid in fids for g in FORMULAS[fid].gate_names}
    residuals = {fid: [] for fid in fids}
    for n in (16, 24, 32):
        E = ExtrinsicBundle(_conformal_three_torus(n), "spectral")
        hyp = hypothesis_profile(E, E.M.active, names)
        for fid in fids:
            assert FORMULAS[fid].applicable(hyp), (fid, n)
            (value, _), = FORMULAS[fid].values(E, [E.M.active])
            residuals[fid].append(abs(value))
    for fid, measured in _DECAY_3D.items():
        r = residuals[fid]
        # within 2x of the measured residual at each size, and each step
        # decays by at least 20 (measured: 72 to 183, spectral)
        assert all(v < 2.0 * m for v, m in zip(r, measured)), (fid, r)
        assert r[0] > 20.0 * r[1] > 400.0 * r[2], (fid, r)
    for fid in _ROUNDOFF_3D:
        assert residuals[fid][-1] < 1e-14, (fid, residuals[fid])


# -- a graph torus refines x alone, the sphere theta alone --------------------------


def _isotropic_twin(M):
    """The n^d build of M, a graph torus or the sphere: the line along the first
    axis of its a, beta, N, mask and beta_sharp_given broadcast along every other axis."""
    from randers_foliations.grid import PeriodicGrid
    from randers_foliations.manifold import FoliatedRandersManifold

    n, d = M.grid.sizes[0], M.dim
    grid = PeriodicGrid((n,) * d, M.grid.periods)
    line = (slice(None),) + (slice(0, 1),) * (d - 1)  # the first axis's line, each held axis kept at length 1

    def wide(f):
        return None if f is None else np.broadcast_to(f[line], grid.sizes + f.shape[d:])

    return FoliatedRandersManifold(grid, wide(M.a), wide(M.beta), wide(M.N), mask=wide(M.mask), name=M.name,
                                   beta_sharp_given=wide(M.beta_sharp_given), beta_singular=M.beta_singular)


def _assert_reads_as_isotropic_twin(thin, scheme, zero_bound):
    """Every field of ``thin`` is constant along its held axes, where a derivative of
    a constant is 0, so every nodewise field is the twin's: the same rows apply, a sup
    row reads the same bits, and an integral row differs only by its order of
    summation, by at most ``zero_bound``.  Returns the applicable rows."""
    bundles = [ExtrinsicBundle(M, scheme) for M in (thin, _isotropic_twin(thin))]
    hyps = [hypothesis_profile(E, E.M.active, set(GATES)) for E in bundles]
    applicable = [fid for fid in formula_ids() if FORMULAS[fid].applicable(hyps[0])]
    assert applicable == [fid for fid in formula_ids() if FORMULAS[fid].applicable(hyps[1])]
    for fid in applicable:
        (got, _), (want, _) = (FORMULAS[fid].values(E, [E.M.active])[0] for E in bundles)
        if FORMULAS[fid].kind == "sup":
            assert float(got).hex() == float(want).hex(), fid
        else:
            assert abs(got - want) <= zero_bound, (fid, got, want)
    return applicable


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("name, n", [("flat-graph-tangent", 16), ("flat-graph-tangent", 24), ("flat-graph", 32)])
def test_a_graph_torus_reads_as_its_isotropic_twin(name, n, scheme):
    from randers_foliations.grid import MIN_SIZE

    thin = build_example(ExampleSpec(name, {"n": n}))
    assert thin.grid.sizes == (n,) + (MIN_SIZE,) * (thin.dim - 1)
    assert len(_assert_reads_as_isotropic_twin(thin, scheme, 1e-15)) >= 20


# measured at n = 128, r0 = 0.2: the integral rows differ from the twin's by at most
# 1.1e-15 under spectral (reeb-riemannian, in both modes) and by 0.0 under central4
SPHERE_TWIN_BOUND = 2e-15


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("mode, rows", [("rotational", 18), ("eigen", 10)])
def test_the_sphere_reads_as_its_isotropic_twin(mode, rows, scheme):
    from randers_foliations.grid import MIN_SIZE

    thin = build_example(ExampleSpec("sphere-latitudes", {"n": 128, "r0": 0.2, "beta_mode": mode}))
    assert thin.grid.sizes == (128, MIN_SIZE) and thin.mask.shape == (128, MIN_SIZE)
    assert len(_assert_reads_as_isotropic_twin(thin, scheme, SPHERE_TWIN_BOUND)) >= rows


@pytest.mark.parametrize("name, sizes", [("flat-graph-tangent", [16, 24]), ("flat-graph", [24, 32])])
def test_a_graph_torus_sweep_is_labelled_by_its_refined_spacing(name, sizes):
    period = 2.0
    reports = run_formulas(ExampleSpec(name, {"period": period}), ["shape-comparison"], sizes)
    assert [h for h, _ in reports[0].convergence] == [period / n for n in sizes]
    assert reports[0].resolution == (sizes[-1],) + (8,) * (len(reports[0].resolution) - 1)


@pytest.mark.parametrize("mode", ["rotational", "eigen"])
def test_a_sphere_sweep_holds_phi_and_is_labelled_by_its_radii(mode):
    spec = ExampleSpec("sphere-latitudes", {"beta_mode": mode, "r0": SWEEP_RADII})
    reports = run_formulas(spec, ["reeb-riemannian"], [128])
    assert reports[0].resolution == (128, 8)
    assert [r0 for r0, _ in reports[0].convergence] == sorted(SWEEP_RADII, reverse=True)


# -- report serialization ----------------------------------------------------------


def test_report_round_trip_and_determinism(flat_graph_reports):
    text1 = reports_to_json(flat_graph_reports, {"example": "flat-graph"})
    text2 = reports_to_json(list(reversed(flat_graph_reports)), {"example": "flat-graph"})
    assert text1 == text2  # ordering is canonical
    payload = json.loads(text1)
    assert payload["schema_version"] == 2
    assert all(
        rec["verdict"] in ("pass", "fail", "not-applicable") for rec in payload["reports"]
    )
    csv_text = reports_to_csv(flat_graph_reports)
    assert csv_text.splitlines()[0] == "formula_id,example,resolution,residual,verdict"
    assert len(csv_text.splitlines()) == len(flat_graph_reports) + 1


def test_judge_rules():
    bound, sup, zero = FORMULAS["energy-bound"], FORMULAS["shape-comparison"], FORMULAS["reeb-riemannian"]
    # a bound's margin passes down to -tol, whatever the sweep shows
    assert _judge(bound, -BOUND_TOL, [], False) == ("pass", BOUND_TOL, {})
    assert _judge(bound, np.nextafter(-BOUND_TOL, -1.0), [], False)[0] == "fail"
    # below the absolute tolerance a residual passes with no audit
    tol = SMOOTH_POLICY[0]
    assert _judge(zero, -0.5 * tol, [(0.1, 1.0), (0.05, 0.5 * tol)], False) == ("pass", tol, {})
    # above it, a residual that falls by the policy's ratio under the cap passes
    verdict, _, audit = _judge(zero, 1e-4, [(0.1, 4e-4), (0.05, 1e-4)], False)
    assert verdict == "pass" and audit["convergence_ratio"] == 4.0
    assert audit["extrapolated_residual"] == pytest.approx(1e-4 / 3.0)
    # a plateau fails, and a decay slower than the policy's rate has no extrapolation
    verdict, _, audit = _judge(zero, 1e-4, [(0.1, 1.01e-4), (0.05, 1e-4)], False)
    assert verdict == "fail" and audit == {"convergence_ratio": pytest.approx(1.01)}
    # a residual that does not fall has no extrapolation
    verdict, _, audit = _judge(zero, 1e-4, [(0.1, 1e-4), (0.05, 1e-4)], False)
    assert verdict == "fail" and audit == {"convergence_ratio": 1.0}
    # on an excised run an integral takes the singular policy, a sup-norm
    # residual the smooth one: the same residual and decay split on it
    conv = [(0.2, 2.5e-3), (0.1, 1e-3)]
    assert _judge(zero, 1e-3, conv, True)[:2] == ("pass", SINGULAR_POLICY[0])
    assert _judge(sup, 1e-3, conv, True)[:2] == ("fail", SMOOTH_POLICY[0])
    assert _judge(zero, 1e-3, conv, False)[:2] == ("fail", SMOOTH_POLICY[0])


def test_a_plateau_carries_its_ratio_and_no_extrapolation():
    # at 24,32 the refuted parallel second-order displays plateau (ratio
    # 1.0000011, where r_fine / (ratio - 1) read 1525.8 and 6728.8), while the
    # comparisons pass on a ratio of 17 to 25
    reports = run_formulas(ExampleSpec("flat-graph-tangent"), formula_ids(), [24, 32])
    for fid in ("parallel-second-order-printed", "parallel-second-order-const-printed",
                "parallel-second-order-b-printed"):
        r = by_id(reports, fid)
        assert r.verdict == "fail" and r.detail == {"convergence_ratio": pytest.approx(1.0, abs=1e-5)}, fid
    # the tangent display is the constant-angle one at chat = c, which holds on this example
    tangent, const = (by_id(reports, f"parallel-second-order-{k}-printed") for k in ("b", "const"))
    assert tangent.value == const.value
    for fid in ("riccati-identity", "codazzi-symmetry-g", "shape-comparison", "z-comparison"):
        r = by_id(reports, fid)
        ratio = r.detail["convergence_ratio"]
        assert r.verdict == "pass" and r.residual > r.tolerance and ratio >= SMOOTH_POLICY[1], fid
        assert r.detail["extrapolated_residual"] == r.residual / (ratio - 1.0), fid


def test_the_tangent_graph_default_passes_every_check_on_absolute_tolerance():
    # no pass of the default sweep hinges on the two-point convergence ratio
    resolutions = list(EXAMPLES["flat-graph-tangent"].resolutions)
    reports = run_formulas(ExampleSpec("flat-graph-tangent"), UNREFUTED, resolutions)
    applicable = [r for r in reports if r.verdict != "not-applicable"]
    assert len(applicable) == 28
    for r in applicable:
        if FORMULAS[r.formula_id].kind == "bound":
            assert r.value >= -BOUND_TOL, r.formula_id
        else:
            assert r.residual <= r.tolerance, (r.formula_id, r.residual)
        assert r.verdict == "pass" and "convergence_ratio" not in r.detail, r.formula_id


def test_report_rejects_bad_verdict():
    with pytest.raises(ValueError):
        ResidualReport(
            formula_id="x",
            example="y",
            resolution=(8,),
            scheme="spectral",
            value=0.0,
            tolerance=1.0,
            verdict="maybe",
        )


def test_formula_registry_descriptions():
    from randers_foliations.cli import _resolve_formulas
    from randers_foliations.manifold import VOLUMES

    for fid in formula_ids():
        f = FORMULAS[fid]
        assert f.description
        assert f.kind in ("zero", "sup", "bound")
        assert f.volume in VOLUMES, fid
        assert set(f.requires) | set(f.any_of) <= set(GATES), fid
    # no gate that no row reads
    assert {g for f in FORMULAS.values() for g in f.gate_names} == set(GATES)
    assert _resolve_formulas("all") == [f for f in formula_ids() if not FORMULAS[f].refuted]
    assert _resolve_formulas("full") == formula_ids()


def test_first_order_expansion_matches_closed_display_pointwise():
    # the k = 1 Newton-transform expansion collapses to the closed display
    # c tr C# + m delta + a3 (1 - c^2) because the perp-beta pieces are
    # traceless; checked pointwise before integration
    from randers_foliations.catalog import build_example
    from randers_foliations.invariants import trace
    from randers_foliations.manifold import integrate

    E = ExtrinsicBundle(build_example(ExampleSpec("flat-graph", {"n": 48})), "spectral")
    m = E.M.m
    U1, U2, a3 = E.rank_one(printed=True)
    closed = (
        E.M.c * trace(E.Csharp_formula)
        + m * E.delta
        + a3 * (1.0 - E.M.c**2)
    )
    # reassemble the same integrand the printed k = 1 evaluator integrates
    b = E.b_frame
    pieces = (
        m * E.delta
        + E.M.c * trace(E.Csharp_formula)
        + np.einsum("...a,...a->...", b, U1)
        + np.einsum("...a,...a->...", b, U2)
        + a3 * (1.0 - E.M.c**2)
    )
    assert np.max(np.abs(pieces - closed)) < 1e-10
    # and both reproduce the registry evaluator's value
    (val, _), = FORMULAS["berwald-sigma-k1-printed"].values(E, [E.M.active])
    assert val == pytest.approx(integrate(E.M, closed, "a"), abs=1e-12)


def test_printed_sigma_2_display_plateaus_where_beta_tilts_off_the_leaves():
    # no catalog example is 3D with beta(N) != 0; on this tilted graph the printed
    # sigma_2 display reads -1.077e-2 and -1.075e-2 at n = 16 and 24 (-1.075e-2 at 32),
    # while the corrected row and the printed sigma_1 display converge
    from randers_foliations.catalog import _flat_torus

    fids = ("berwald-sigma-k1-printed", "berwald-sigma-k2", "berwald-sigma-k2-printed")
    names = {g for fid in fids for g in FORMULAS[fid].gate_names}
    r = {fid: [] for fid in fids}
    for n in (16, 24):
        E = ExtrinsicBundle(_flat_torus("tilted", {"n": n, "period": 1.0}, (0.2, 0.1, 0.3), 0.04), "spectral")
        hyp = hypothesis_profile(E, E.M.active, names)
        assert np.abs(E.M.beta_N).min() > 0.1  # beta tilts off the leaves at every node
        for fid in fids:
            assert FORMULAS[fid].applicable(hyp), (fid, n)
            (value, _), = FORMULAS[fid].values(E, [E.M.active])
            r[fid].append(abs(value))
    # measured: printed sigma_2 1.077e-2, 1.075e-2; corrected 1.1e-5, 4.6e-8; printed sigma_1 4.7e-7, 6.3e-10
    assert 1.0e-2 < r["berwald-sigma-k2-printed"][1] < r["berwald-sigma-k2-printed"][0] < 1.1e-2
    assert r["berwald-sigma-k2-printed"][0] < 1.01 * r["berwald-sigma-k2-printed"][1]
    assert r["berwald-sigma-k2"][0] < 2e-5 and r["berwald-sigma-k2"][1] < 1e-7
    assert r["berwald-sigma-k1-printed"][0] < 1e-6 and r["berwald-sigma-k1-printed"][1] < 1e-9


# -- residuals on drawn parameters ------------------------------------------------

_COMPARISONS = ("shape-comparison", "z-comparison", "csharp-comparison", "trace-comparison")
_IDENTITIES = ("reeb-riemannian", "reeb-weighted")
# each example's sweep and the identities whose relative residual it bounds: an excised
# run sweeps one size, and there the cap truncation, not roundoff, limits reeb-weighted
_SWEEPS = {"sphere-latitudes": ([128], ("reeb-riemannian",))}
# measured over the draws below: comparisons at most 5.5e-11 (3.9e-10 at phi_amplitude 0.3
# with |eps| at the disc's edge) on the tori and 9.7e-13 on the sphere (sup |beta|_a 0.84),
# identities' relative residual at most 2.4e-16 on the tori and 6.6e-16 on the sphere
# (reeb-riemannian, 6.6e-15 absolute, whatever the draw), and the tilt balance's at
# least 6.5e-3 where its field is not 0.0 (1.4e-10 at phi_amplitude 0, eps2 = 1e-9)
COMPARISON_BOUND = 1e-9
IDENTITY_BOUND = 1e-13
TILT_FLOOR = 1e-11
# a draw whose |beta|_a reaches this anywhere is rejected: near the norm bound 1 the grid
# does not resolve F (the sphere at n = 128 reads z-comparison 0.078 where sup |beta|_a
# is 0.98, 5.9e-7 at n = 256, and 1.2e-10 where it is 0.90); the disc keeps the tori below it
BETA_NORM_CAP = 0.85


def _disc():
    """(x, y) with x^2 + y^2 <= 0.5, so |beta| <= 0.71 < 1."""
    return st.floats(-0.7, 0.7).flatmap(
        lambda x: st.tuples(st.just(x), st.floats(-math.sqrt(0.5 - x * x), math.sqrt(0.5 - x * x))))


def _draws(example, mode):
    """The finite sub-box drawn from, with period held at its default 1 (the chart's
    scale multiplies every absolute residual by a power of 1/period, and on flat-graph
    it multiplies the slope too).  phi_amplitude lies in +-0.3: its row is (-inf, inf),
    and large values overflow.  flat-graph's amplitude lies in +-0.03: at 0.05, the
    default, the 48,64 sweep does not resolve the graph (the comparisons read up to
    2e-6 at |beta_sharp| = 0.71).  The sphere's eps lies in +-0.7 and asym in +-1.5,
    where its profile's norm bound (and ``BETA_NORM_CAP``) rejects some draws; it
    sweeps two radii at one size.  Every flat-graph draw builds: a beta_sharp
    parallel to N somewhere fails the nowhere-orthogonal gate, not the build."""
    if example == "flat-graph":
        return st.builds(lambda amp, b: {"amplitude": amp, "beta_sharp": b}, st.floats(-0.03, 0.03), _disc())
    if example == "sphere-latitudes":
        return st.builds(lambda eps, asym: {"beta_mode": mode, "eps": eps, "asym": asym, "r0": (0.3, 0.2)},
                         st.floats(-0.7, 0.7), st.floats(-1.5, 1.5))
    eps = st.just(()) if mode == "riemannian" else _disc()
    return st.builds(lambda phi, e: {"phi_amplitude": phi, "beta_mode": mode, **dict(zip(("eps1", "eps2"), e))},
                     st.floats(-0.3, 0.3), eps)


def _relative_residual(E, fid):
    """(|int f dV|, int |f| dV) of a ``zero`` row's field on the bundle's active nodes."""
    f, volume = FORMULAS[fid].evaluate(E), FORMULAS[fid].volume
    return abs(integrate(E.M, f, volume)), integrate(E.M, np.abs(f), volume)


# the sphere's eigen mode is left out: its beta is singular on the excised set, so the
# comparisons' smooth-beta gate makes them not-applicable there
@pytest.mark.parametrize("example, mode", [("conformal-torus", "generic"), ("conformal-torus", "constant-angle"),
                                           ("conformal-torus", "riemannian"), ("flat-graph", None),
                                           ("sphere-latitudes", "rotational")])
def test_residuals_on_drawn_parameters(example, mode):
    # the corrected comparisons stay near roundoff, the identities' relative residual
    # too, and the refuted tilt balance's relative residual above a floor under generic
    # beta (under constant-angle and on flat-graph the display holds to roundoff).  The
    # floor is low because that residual falls with beta(N) where phi_amplitude is 0:
    # it reads about 0.14 max |beta(N)|, so 1.4e-10 at eps2 = 1e-9
    sizes, identities = _SWEEPS.get(example, ([48, 64], _IDENTITIES))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(params=_draws(example, mode))
    def check(params):
        try:
            E = ExtrinsicBundle(build_example(ExampleSpec(example, {**params, "n": sizes[-1]})))
            if E.M.beta_norm.max() >= BETA_NORM_CAP:
                reject()
            reports = run_formulas(ExampleSpec(example, params), list(_COMPARISONS), sizes)
        except ExampleError:  # the CLI's exit 2: only the sphere's profile past its norm bound
            reject()
        for r in reports:
            assert r.verdict != "not-applicable" and r.residual < COMPARISON_BOUND, (r.formula_id, r.value)
        for fid in identities:
            total, scale = _relative_residual(E, fid)
            assert total <= IDENTITY_BOUND * scale, (fid, total, scale)
        if mode == "generic":
            # a field of exactly 0.0 holds exactly: beta tangent to the leaves (chat = c),
            # or, where phi_amplitude and eps1 are 0, normal to them on a flat chart (c = 1)
            total, scale = _relative_residual(E, "tilt-balance-printed")
            assert scale == 0.0 or total > TILT_FLOOR * scale, (total, scale)

    check()


# -- rows that no catalog run can fail ------------------------------------------

_CONFIGURATIONS = [(name, {}) for name in sorted(EXAMPLES)] + [
    ("conformal-torus", {"beta_mode": "constant-angle"}), ("conformal-torus", {"beta_mode": "riemannian"}),
    ("sphere-latitudes", {"beta_mode": "eigen"}),
]


def test_rows_no_catalog_run_can_fail():
    # an unrefuted row that applies on no configuration, or only where its field (a
    # composite row: its value) is exactly 0.0 on M.active, tests nothing; a new such
    # row breaks this test, and a row that gains a failing configuration leaves the set
    vacuous = {fid for fid, f in FORMULAS.items() if not f.refuted}
    for name, params in _CONFIGURATIONS:
        M = build_example(ExampleSpec(name, {**params, "n": min(EXAMPLES[name].resolutions)}))
        E = ExtrinsicBundle(M)
        hyp = hypothesis_profile(E, M.active, set(GATES))
        for fid in sorted(vacuous):
            if FORMULAS[fid].applicable(hyp):
                field = FORMULAS[fid].evaluate(E)
                value = field(M.active)[0] if callable(field) else field[M.active]
                if np.any(value != 0.0):
                    vacuous.discard(fid)
    assert vacuous == {"umbilicity-bound", "sigma-tg-k1", "sigma-tg-k2", "vanishing-parallel",
                       "csharp-vanishing", "abar-selfadjoint"}
