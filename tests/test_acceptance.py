"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 includes two published displays whose residuals converge
to nonzero values (see notes in the README); the corresponding sub-checks are
implemented verbatim and marked as strict expected failures, with companion
tests pinning the refuting plateau.
"""

import json

import numpy as np
import pytest

import fd
from randers_foliations.catalog import ExampleSpec, build_example
from randers_foliations.cli import build_config, report_config, run
from randers_foliations.extrinsic import ExtrinsicBundle
from randers_foliations.matinv import ORACLE_MAX_DIM, sigma_multi, sigma_via_determinant, verify_appendix_identities
from randers_foliations.point import f_normal, fundamental_tensor, fundamental_tensor_printed, randers_norm
from randers_foliations.report import reports_to_json
from randers_foliations.verify import run_formulas
from test_point import random_point


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _report(name, fids, res, scheme="spectral", params=None):
    return run_formulas(ExampleSpec(name, params or {}), fids, res, scheme)


def _one(reports, fid):
    return next(r for r in reports if r.formula_id == fid)


# -- 1 ---------------------------------------------------------------------------


def test_criterion_1_sigma_oracle_and_identities():
    rng = np.random.default_rng(42)
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
    identities = verify_appendix_identities(seed=1, trials=100, m_max=4)
    ok = worst < 1e-9 and max(identities.values()) < 1e-9
    _line(1, ok, f"sigma oracle rel {worst:.2e}; identity residuals max {max(identities.values()):.2e}")


# -- 2 ---------------------------------------------------------------------------


def test_criterion_2_fundamental_tensor():
    rng = np.random.default_rng(7)
    worst_fd, worst_det, worst_printed = 0.0, 0.0, 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        p = random_point(rng, dim)
        y = rng.standard_normal(dim) * rng.uniform(0.5, 2.0)
        g = fundamental_tensor(p, y)
        H = fd.hessian(lambda z: 0.5 * randers_norm(p, z) ** 2, y, 1e-4 * p.alpha(y))
        worst_fd = max(worst_fd, np.max(np.abs(g - H)) / np.max(np.abs(g)))
        ratio = np.linalg.det(g) / np.linalg.det(p.a)
        F, al = randers_norm(p, y), p.alpha(y)
        worst_det = max(worst_det, abs(ratio / (F / al) ** (dim + 1) - 1.0))
        yu = y / p.alpha(y)
        worst_printed = max(
            worst_printed, np.max(np.abs(fundamental_tensor(p, yu) - fundamental_tensor_printed(p, yu)))
        )
    ok = worst_fd < 1e-6 and worst_det < 1e-8 and worst_printed < 1e-12
    _line(2, ok, f"FD Hessian {worst_fd:.2e}; det identity {worst_det:.2e}; unit-sphere display {worst_printed:.2e}")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_3_normal_construction():
    rng = np.random.default_rng(11)
    worst_norm, worst_orth, worst_fn = 0.0, 0.0, 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        p = random_point(rng, dim, beta_scale=0.85)
        v = rng.standard_normal(dim)
        N = v / p.alpha(v)
        nd = f_normal(p, N)
        worst_norm = max(worst_norm, abs(p.alpha(nd.n) - 1.0))
        g = fundamental_tensor(p, nd.n)
        for i in range(dim):
            w = np.eye(dim)[i] - p.inner(np.eye(dim)[i], N) * N
            if p.alpha(w) > 1e-8:
                worst_orth = max(worst_orth, abs(nd.n @ g @ w))
        worst_fn = max(worst_fn, abs(randers_norm(p, nd.n) - nd.c * nd.chat))
    ok = worst_norm < 1e-11 and worst_orth < 1e-11 and worst_fn < 1e-12
    _line(3, ok, f"|n|_a-1 {worst_norm:.2e}; g_n(n,W) {worst_orth:.2e}; F(n)-c*chat {worst_fn:.2e}")


# -- 4 and 5: comparison formulas ---------------------------------------------------


def _to_frame(E, field):
    if field.shape[-1] == E.M.m:  # already a frame array
        return field
    return E.op_to_frame(field) if field.ndim == E.M.dim + 2 else E.vec_to_frame(field)


def _sup_errors(name, attr_pair, ns, params=None, scheme="spectral"):
    errs = []
    for n in ns:
        E = ExtrinsicBundle(build_example(ExampleSpec(name, {**(params or {}), "n": n})), scheme)
        x, y = (_to_frame(E, getattr(E, attr)) for attr in attr_pair)
        errs.append(float(np.max(np.abs(x - y))))
    return errs


def _converges_spectrally(errs):
    # ratio at least 100 per doubling, or already at the roundoff floor
    ok = errs[-1] < 1e-3
    for c, f in zip(errs, errs[1:]):
        ok = ok and (f < 1e-11 or c / max(f, 1e-300) >= 100.0)
    return ok


def test_criterion_4_shape_comparison_proof():
    lines = []
    ok = True
    for name, params in (("flat-graph", None), ("conformal-torus", None)):
        errs = _sup_errors(name, ("Ag_formula", "Ag_direct"), (32, 64, 128), params)
        ok = ok and _converges_spectrally(errs)
        lines.append(f"{name}: " + "/".join(f"{e:.1e}" for e in errs))
    # fourth-order scheme: the ratio per doubling must reach at least 12
    c4 = _sup_errors("conformal-torus", ("Ag_formula", "Ag_direct"), (32, 64), scheme="central4")
    ratio_c4 = c4[0] / max(c4[1], 1e-300)
    ok = ok and (ratio_c4 >= 12.0 or c4[1] < 1e-11)
    # the published display plateaus wherever beta(N) != 0 (see ledger)
    printed = _sup_errors("flat-graph", ("Ag_printed", "Ag_direct"), (64, 128))
    plateau = printed[1] > 1e-2 and printed[1] / printed[0] > 0.8
    ok = ok and plateau
    _line(
        4,
        ok,
        "shape comparison converges ["
        + "; ".join(lines)
        + f"]; central4 ratio {ratio_c4:.1f}; printed display plateaus at {printed[1]:.2e}",
    )


def test_criterion_5_z_and_torsion_comparison_proof():
    ok = True
    lines = []
    for attr in (("Z_formula", "Z_direct"), ("Csharp_formula", "Csharp_direct")):
        for name in ("flat-graph", "conformal-torus"):
            errs = _sup_errors(name, attr, (32, 64, 128))
            ok = ok and _converges_spectrally(errs)
            lines.append(f"{attr[0]} {name}: " + "/".join(f"{e:.1e}" for e in errs))
    printed = _sup_errors("conformal-torus", ("Csharp_printed", "Csharp_direct"), (64, 128))
    ok = ok and printed[1] > 1e-2
    _line(5, ok, "; ".join(lines) + f"; printed torsion display plateaus at {printed[1]:.2e}")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_6_riccati_and_codazzi():
    reports = _report("conformal-torus", ["riccati-identity", "codazzi-symmetry"], [48, 64])
    ric = _one(reports, "riccati-identity")
    cod = _one(reports, "codazzi-symmetry")
    # refinement at the scheme order, measured with the finite-difference scheme
    from test_manifold import conformal, riccati_residual

    r32 = riccati_residual(conformal(n=32), "central4")
    r64 = riccati_residual(conformal(n=64), "central4")
    ok = ric.residual < 1e-5 and cod.residual < 1e-5 and r32 / r64 > 8.0
    _line(6, ok, f"riccati {ric.residual:.2e}, codazzi {cod.residual:.2e} at 64; central4 ratio {r32/r64:.1f}")


# -- 7: integral formulas ----------------------------------------------------------


def test_criterion_7_integral_formulas():
    checks = []
    rep = _report("conformal-torus", ["reeb-finsler", "reeb-weighted", "second-order-riemannian"],
                  [48, 64], params={"beta_mode": "riemannian"})
    checks += [("reeb (riemannian torus)", _one(rep, "reeb-finsler")),
               ("weighted reeb", _one(rep, "reeb-weighted")),
               ("second order curvature route", _one(rep, "second-order-riemannian"))]
    rep = _report("flat-graph", ["berwald-sigma-k1", "berwald-sigma-k1-printed", "sigma-flat-k1"], [48, 64])
    checks += [("parallel-beta sigma_1 expansion", _one(rep, "berwald-sigma-k1")),
               ("published sigma_1 display", _one(rep, "berwald-sigma-k1-printed")),
               ("total sigma_1, flat Berwald", _one(rep, "sigma-flat-k1"))]
    rep = _report("flat-graph-tangent", ["berwald-sigma-k2", "sigma-flat-k2"], [24, 32])
    checks += [("parallel-beta sigma_2 expansion", _one(rep, "berwald-sigma-k2")),
               ("total sigma_2, flat Berwald", _one(rep, "sigma-flat-k2"))]
    ok = True
    parts = []
    for label, r in checks:
        good = r.verdict == "pass" and r.residual < 1e-6
        ok = ok and good
        parts.append(f"{label} {r.residual:.1e}")
    _line(7, ok, "; ".join(parts))


@pytest.mark.xfail(
    strict=True,
    reason="published first-order tilt balance: the residual converges to a "
    "nonzero value on the generic conformal torus (transcription error in the "
    "comparison formula's tilted terms; see the README section \"Findings on "
    "the published closed forms\")",
)
def test_criterion_7_tilt_balance_as_published():
    rep = _report("conformal-torus", ["tilt-balance-printed"], [48, 64])
    assert _one(rep, "tilt-balance-printed").residual < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="a zero row's residual is an absolute integral that scales with the "
    "chart: the refuted tilt balance reads 7.965e-4 at period 1 and 7.965e-7 at "
    "period 0.001, which passes its 1e-6 tolerance (ROADMAP item 3: judge "
    "integrals on a period-free scale)",
    raises=AssertionError,
)
def test_criterion_7_tilt_balance_fails_at_any_period():
    rep = _report("conformal-torus", ["tilt-balance-printed"], [48, 64], params={"period": 0.001})
    assert _one(rep, "tilt-balance-printed").verdict == "fail"


def test_criterion_7_tilt_balance_plateau_documented():
    rep = _report("conformal-torus", ["tilt-balance-printed"], [32, 48, 64])
    r = _one(rep, "tilt-balance-printed")
    conv = [res for _, res in r.convergence]
    assert conv[-1] == pytest.approx(7.965e-4, rel=1e-2)
    assert conv[-1] / conv[0] == pytest.approx(1.0, abs=1e-3)
    print(f"ACCEPTANCE  7n: documented plateau of published tilt balance at {conv[-1]:.3e}")


@pytest.mark.xfail(
    strict=True,
    reason="published parallel-field second-order display: converged nonzero "
    "residual on flat Berwald examples (dropped delta- and torsion-square "
    "terms; see the README section \"Findings on the published closed forms\")",
)
def test_criterion_7_parallel_second_order_as_published():
    rep = _report("flat-graph", ["parallel-second-order-printed"], [48, 64])
    assert _one(rep, "parallel-second-order-printed").residual < 1e-6


def test_criterion_7_parallel_second_order_plateau_documented():
    rep = _report("flat-graph", ["parallel-second-order-printed"], [32, 48, 64])
    r = _one(rep, "parallel-second-order-printed")
    conv = [res for _, res in r.convergence]
    assert conv[-1] > 1e0
    assert conv[-1] / conv[0] == pytest.approx(1.0, abs=5e-3)
    print(f"ACCEPTANCE  7n: documented plateau of published second-order display at {conv[-1]:.3e}")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_8_singular_sphere():
    rep = run_formulas(
        ExampleSpec("sphere-latitudes", {"r0": [0.2, 0.1, 0.05]}),
        ["reeb-finsler", "reeb-riemannian"],
        [256],
        "spectral",
    )
    rf = _one(rep, "reeb-finsler")
    ra = _one(rep, "reeb-riemannian")
    seq = [res for _, res in rf.convergence]
    monotone = all(c >= f - 1e-12 for c, f in zip(seq, seq[1:]))
    ok = monotone and seq[-1] < 1e-2 and ra.residual < 1e-2
    _line(8, ok, f"sphere reeb residuals {', '.join(f'{x:.2e}' for x in seq)} (r0 = 0.2/0.1/0.05)")


# -- 9 ---------------------------------------------------------------------------


def test_criterion_9_energy_bound():
    margins = {}
    for name, res in (("flat-parallel", [12, 16]), ("flat-graph", [48, 64]), ("flat-graph-tangent", [24, 32])):
        rep = _report(name, ["energy-bound"], res)
        margins[name] = _one(rep, "energy-bound")
    equality = abs(margins["flat-parallel"].value) < 1e-10
    ok = equality and all(r.value >= -1e-8 for r in margins.values())
    _line(9, ok, "; ".join(f"{k} margin {r.value:+.2e}" for k, r in margins.items()))


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_vanishing_conclusions():
    sups = {}
    for name, res in (("flat-parallel", [12, 16]), ("flat-graph-tangent", [24, 32])):
        rep = _report(name, ["vanishing-parallel"], res)
        sups[name] = _one(rep, "vanishing-parallel").residual
    ok = all(v < 1e-8 for v in sups.values())
    _line(10, ok, "; ".join(f"{k} sup|Abar(beta_top)| {v:.2e}" for k, v in sups.items()))


# -- 11 --------------------------------------------------------------------------


def test_criterion_11_determinism():
    config = build_config([
        "--example", "flat-graph", "--res", "32,48",
        "--formulas", "reeb-riemannian,shape-comparison,berwald-sigma-k1",
        "--scheme", "spectral", "--seed", "5", "--matrix-identities",
    ])
    _, r1 = run(config)
    _, r2 = run(config)
    t1 = reports_to_json(r1, report_config(config))
    t2 = reports_to_json(r2, report_config(config))
    ok = t1 == t2 and json.loads(t1)["schema_version"] == 2
    _line(11, ok, "two identical runs produce byte-identical reports")
