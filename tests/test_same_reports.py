import importlib.util
import json
import os
import sys

import pytest

from randers_foliations.catalog import EXAMPLES

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_reports.py")


@pytest.fixture(scope="module")
def tool():
    """``tools/same_reports.py`` as a module; its path and bytecode settings are undone after the import."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        mp.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
        spec = importlib.util.spec_from_file_location("same_reports", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_argv_list_covers_the_catalog_and_the_workloads(tool):
    runs = tool.argv_list()
    examples = [["--example", name, "--formulas", "full", "--out", f"{name}.json"] for name in sorted(EXAMPLES)]
    modes = [["--example", "sphere-latitudes", "--param", "beta_mode=eigen", "--formulas", "full",
              "--out", "sphere-latitudes-eigen.json"],
             ["--example", "conformal-torus", "--param", "beta_mode=constant-angle", "--formulas", "full",
              "--out", "conformal-torus-constant-angle.json"],
             ["--example", "conformal-torus", "--param", "beta_mode=riemannian", "--formulas", "full",
              "--out", "conformal-torus-riemannian.json"]]
    workloads = [tool.wl.cli_argv(w, slot, f"{w.name}-{slot}.json")
                 for w in tool.wl.WORKLOADS.values() for slot in (0, 5)]
    twin = [["--config", "run.cfg"], ["--example", "flat-parallel", "--res", "12", "--out", "flag.json"]]
    assert runs == [["--list"]] + examples + modes + workloads + twin
    assert len(runs) == 17


def _streams(code=0, out=b"a\nb\n", err=b""):
    return {"exit code": code, "stdout": out, "stderr": err, "report r.json": b'{"x": 1}\n'}


def test_first_difference_of_equal_runs_is_none(tool):
    assert tool.first_difference(_streams(), _streams()) is None


def test_first_difference_names_the_exit_code(tool):
    assert tool.first_difference(_streams(code=0), _streams(code=1)) == "exit code: 0 at REV, 1 here"


def test_first_difference_names_the_first_differing_line(tool):
    difference = tool.first_difference(_streams(out=b"a\nb\nc\n"), _streams(out=b"a\nB\nC\n"))
    assert difference == "stdout, line 2: 'b' at REV, 'B' here"
    # one stream a prefix of the other: the shorter one ends where the longer goes on
    difference = tool.first_difference(_streams(err=b"a"), _streams(err=b"a\nb"))
    assert difference == "stderr, line 2: '<end>' at REV, 'b' here"
    # a report written on one side only
    old, new = _streams(), _streams()
    del old["report r.json"]
    assert tool.first_difference(old, new) == "report r.json, line 1: '<not written>' at REV, '{\"x\": 1}' here"


def test_every_differing_argv_is_reported(tool, monkeypatch, capsys):
    def report(f_residual, g_verdict):
        rows = [("f", "pass", f_residual), ("g", g_verdict, 2.0)]
        return json.dumps({"reports": [{"formula_id": f, "verdict": v, "residual": r} for f, v, r in rows]}).encode()

    tree = os.path.join(tool.ROOT, "src")
    # argv a moves a residual, b matches, c also flips a verdict and the exit code
    here = {("a",): _streams(out=b"y\n") | {"report r.json": report(4e-17, "fail")},
            ("b",): _streams(out=b"x\n") | {"report r.json": report(1e-17, "fail")},
            ("c",): _streams(code=1, out=b"x\n") | {"report r.json": report(1e-17, "pass")}}

    def run(src, cwd, argv):
        return here[tuple(argv)] if src == tree else _streams(out=b"x\n") | {"report r.json": report(1e-17, "fail")}

    monkeypatch.setattr(tool, "checkout", lambda rev, dest: True)
    monkeypatch.setattr(tool, "run", run)
    monkeypatch.setattr(tool, "argv_list", lambda: [["a"], ["b"], ["c"]])
    assert tool.main(["REV"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differ: a",
        "  stdout, line 1: 'x' at REV, 'y' here",
        "  report r.json: verdicts and exit code the same; largest |residual| change 3.000e-17 (f)",
        "same: b",
        "differ: c",
        "  exit code: 0 at REV, 1 here",
        "  report r.json: verdicts and exit code DIFFER; no residual moved",
        "2 of 3 runs differ from REV",
    ]


def test_report_changes_name_the_largest_detail_change(tool):
    def side(residual, detail):
        entry = {"formula_id": "m", "verdict": "pass", "residual": residual, "detail": detail}
        return _streams() | {"report r.json": json.dumps({"reports": [entry]}).encode()}

    # only detail entries move: the residual line alone would say nothing moved
    old = side(1e-15, {"a": 1e-16, "b": 2e-16, "note": "x", "ok": True})
    new = side(1e-15, {"a": 3e-16, "b": 1e-16, "note": "y", "ok": False})
    assert tool.report_changes(old, new) == [
        "report r.json: verdicts and exit code the same; no residual moved;"
        " largest |detail| change 2.000e-16 (m: a)"
    ]
    # a non-numeric or one-sided detail entry is not a change of a number
    assert tool.report_changes(side(1e-15, {"a": 1.0, "note": "x"}), side(2e-15, {"note": "y", "c": 5.0})) == [
        "report r.json: verdicts and exit code the same; largest |residual| change 1.000e-15 (m)"
    ]


def test_report_changes_name_every_other_field_that_moved(tool):
    def side(gates, convergence):
        entries = [{"formula_id": f, "verdict": "pass", "residual": 0.0, "gates": g, "convergence": c}
                   for f, g, c in zip("mnp", gates, convergence)]
        return _streams() | {"report r.json": json.dumps({"reports": entries}).encode()}

    # gates shrink on two entries and one convergence table moves; verdicts and residuals
    # do not, so the line would otherwise say only that no residual moved
    old = side([{"x": [1, 2, True]}, {"x": [1, 2, True], "y": [0, 1, False]}, {}], [[[1, 0]], [], []])
    new = side([{}, {"y": [0, 1, False]}, {}], [[[1, 0]], [], [[2, 0]]])
    assert tool.report_changes(old, new) == [
        "report r.json: verdicts and exit code the same; no residual moved; gates on 2 entries;"
        " convergence on 1 entry"
    ]
