import json

import pytest

from randers_foliations.cli import ConfigError, build_config, main


def test_exit_zero_on_passing_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "--example",
            "flat-parallel",
            "--res",
            "12,16",
            "--formulas",
            "reeb-riemannian,reeb-finsler,energy-bound",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert {r["verdict"] for r in payload["reports"]} == {"pass"}
    text = capsys.readouterr().out
    assert "3 passed, 0 failed" in text


def test_exit_one_on_refuted_display(tmp_path):
    # the published tilt-balance display plateaus on the generic torus
    code = main(
        [
            "--example",
            "conformal-torus",
            "--res",
            "32,48",
            "--formulas",
            "tilt-balance-printed",
        ]
    )
    assert code == 1


def test_all_selection_passes_on_generic_torus():
    code = main(["--example", "conformal-torus", "--res", "32,48", "--formulas", "all"])
    assert code == 0


def test_full_selection_includes_refuted_displays():
    code = main(["--example", "conformal-torus", "--res", "32,48", "--formulas", "full"])
    assert code == 1


def test_exit_two_on_config_errors(capsys, tmp_path, monkeypatch):
    assert main(["--example", "nosuch"]) == 2
    assert main(["--example", "flat-graph", "--formulas", "bogus-formula"]) == 2
    assert main(["--example", "flat-graph", "--res", "abc"]) == 2
    assert main([]) == 2
    # inputs the example builders reject
    assert main(["--example", "flat-graph", "--res", "4"]) == 2
    assert main(["--example", "conformal-torus", "--param", "beta_mode=bogus"]) == 2
    assert main(["--example", "flat-graph", "--param", "beta_sharp=0.9,0.6"]) == 2
    assert main(["--example", "flat-parallel", "--param", "beta_sharp=0.6,0,0.9"]) == 2
    assert main(["--example", "sphere-latitudes", "--res", "128", "--param", "r0_sweep=0.2,0.01"]) == 2
    # a negative seed and an empty formula selection, as flags
    assert main(["--example", "flat-parallel", "--seed", "-1", "--matrix-identities"]) == 2
    assert main(["--example", "flat-parallel", "--formulas", ","]) == 2
    # bad values from a config file or the environment
    for line in ("seed = x", "jobs = 1.5", "matrix_identities = maybe", "seed = -1", "formulas =", "jobs = 0"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"example = flat-parallel\n{line}\n")
        assert main(["--config", str(cfg)]) == 2, line
    monkeypatch.setenv("RANDERS_FOLIATE_JOBS", "two")
    assert main(["--example", "flat-parallel"]) == 2
    err = capsys.readouterr().err
    assert "|beta| must be < 1" in err  # the tuple reached the builder
    assert "Traceback" not in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    # parameter names the example does not accept, and r0 together with r0_sweep
    monkeypatch.delenv("RANDERS_FOLIATE_JOBS")
    assert main(["--example", "flat-graph", "--param", "amplitdue=0.5", "--formulas", "reeb-riemannian"]) == 2
    assert main(["--example", "flat-parallel", "--param", "r0=0.2"]) == 2
    assert main(["--example", "sphere-latitudes", "--param", "r0=0.2", "--param", "r0_sweep=0.2,0.1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") for line in err)
    assert err[0].endswith("amplitdue for flat-graph; accepted: period, amplitude, beta_sharp")
    # a tuple for a scalar parameter, and non-finite numbers
    for value in ("0.1,0.2", "nan", "inf", "-inf", "0.1,nan"):
        assert main(["--example", "flat-graph", "--param", f"amplitude={value}"]) == 2, value
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err)
    assert err[0] == "error: flat-graph: parameter amplitude takes one value, got (0.1, 0.2)"
    assert all(line.endswith("is not finite") for line in err[1:])
    # a worker count below 1, as a flag or from the environment
    assert main(["--example", "flat-parallel", "--jobs", "0"]) == 2
    assert main(["--example", "flat-parallel", "--jobs", "-3"]) == 2
    monkeypatch.setenv("RANDERS_FOLIATE_JOBS", "0")
    assert main(["--example", "flat-parallel"]) == 2
    monkeypatch.delenv("RANDERS_FOLIATE_JOBS")
    assert capsys.readouterr().err.splitlines() == [
        "error: jobs must be an integer >= 1, got 0",
        "error: jobs must be an integer >= 1, got -3",
        "error: jobs must be an integer >= 1, got 0",
    ]
    # the grid size, wrong arity, a row the selected beta_mode does not read,
    # and a choice outside its values
    for argv in (
        ["--example", "flat-graph", "--param", "n=20"],
        ["--example", "flat-graph", "--param", "beta_sharp=0.1,0.2,0.3"],
        ["--example", "flat-graph", "--param", "beta_sharp=0.5"],
        ["--example", "conformal-torus", "--param", "beta_mode=riemannian", "--param", "eps1=0.9"],
        ["--example", "sphere-latitudes", "--param", "beta_mode=eigen", "--param", "asym=5"],
        ["--example", "conformal-torus", "--param", "beta_mode=a,b"],
    ):
        assert main(argv) == 2, argv
    assert capsys.readouterr().err.splitlines() == [
        "error: the grid size n is not a --param; set it with --res",
        "error: flat-graph: parameter beta_sharp takes 2 values, got 3",
        "error: flat-graph: parameter beta_sharp takes 2 values, got 1",
        "error: conformal-torus: parameter eps1 is not read under beta_mode=riemannian, "
        "only under generic, constant-angle",
        "error: sphere-latitudes: parameter asym is not read under beta_mode=eigen, "
        "only under rotational",
        "error: conformal-torus: parameter beta_mode must be one of "
        "generic|constant-angle|riemannian, got 'a,b'",
    ]
    # a report path that cannot be written, after the sweep has run
    out = tmp_path / "missing" / "report.json"
    argv = ["--example", "flat-parallel", "--res", "12", "--formulas", "reeb-riemannian"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write report {out}: No such file or directory"
    ]


def test_list_catalog(capsys):
    assert main(["--list"]) == 0
    text = capsys.readouterr().out
    assert "flat-graph" in text
    assert "sphere-latitudes" in text
    assert "reeb-finsler" in text
    # stable ordering across runs
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == text


def test_param_parsing_and_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # sweep configuration
        example = conformal-torus
        res = 32,48
        formulas = reeb-riemannian
        param = beta_mode=riemannian
        scheme = spectral
        """
    )
    config = build_config(["--config", str(cfg)])
    assert config.example == "conformal-torus"
    assert config.matrix_identities is False
    assert config.params == {"beta_mode": "riemannian"}
    assert config.resolutions == [32, 48]
    # flags override the file
    config = build_config(["--config", str(cfg), "--res", "16,32", "--param", "phi_amplitude=0.2"])
    assert config.resolutions == [16, 32]
    assert config.params["phi_amplitude"] == 0.2
    # matrix_identities reads true/false/1/0; "false" must not run the suite
    for text, want in (("false", False), ("0", False), ("true", True), ("1", True)):
        cfg.write_text(f"example = conformal-torus\nmatrix_identities = {text}\n")
        assert build_config(["--config", str(cfg)]).matrix_identities is want, text
    # comma-separated numbers are tuples; a choice is checked against its values
    config = build_config(["--example", "flat-graph", "--param", "beta_sharp=0.3,0.15"])
    assert config.params == {"beta_sharp": (0.3, 0.15)}
    with pytest.raises(ConfigError):
        build_config(["--example", "conformal-torus", "--param", "beta_mode=a,b"])
    config = build_config(["--example", "sphere-latitudes", "--param", "r0_sweep=0.2,0.1"])
    assert config.params["r0_sweep"] == (0.2, 0.1)
    # the excised sphere sweeps r0 in descending order; one value is a one-point sweep
    base = ["--example", "sphere-latitudes", "--res", "128", "--formulas", "reeb-riemannian"]
    out = tmp_path / "sweep.json"
    for sweep, radii in (("0.2,0.3", [0.3, 0.2]), ("0.3", [0.3])):
        assert main(base + ["--param", f"r0_sweep={sweep}", "--out", str(out)]) == 0
        conv = json.loads(out.read_text())["reports"][0]["convergence"]
        assert [h for h, _ in conv] == radii


def test_explicit_r0_is_a_one_point_sweep(tmp_path):
    out = tmp_path / "r0.json"
    argv = ["--example", "sphere-latitudes", "--res", "128", "--param", "r0=0.3", "--out", str(out)]
    assert main(argv + ["--formulas", "reeb-riemannian"]) == 0
    [report] = json.loads(out.read_text())["reports"]
    assert [h for h, _ in report["convergence"]] == [0.3]


def test_bad_param_reports_config_error():
    with pytest.raises(ConfigError):
        build_config(["--example", "flat-graph", "--param", "oops"])


def test_matrix_identities_flag(tmp_path):
    out = tmp_path / "mi.json"
    code = main(
        [
            "--example",
            "flat-parallel",
            "--res",
            "12",
            "--formulas",
            "reeb-riemannian",
            "--matrix-identities",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    ids = [r["formula_id"] for r in payload["reports"]]
    assert "matrix-identities" in ids


def test_byte_identical_reports(tmp_path):
    args = [
        "--example",
        "flat-graph",
        "--res",
        "32,48",
        "--formulas",
        "reeb-riemannian,shape-comparison,berwald-sigma-k1",
        "--seed",
        "7",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "--example",
            "flat-parallel",
            "--res",
            "12",
            "--formulas",
            "reeb-riemannian",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "formula_id,example,resolution,residual,verdict"
    assert lines[1].startswith("reeb-riemannian,flat-parallel,12x12x12")


def test_jobs_flag_and_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDERS_FOLIATE_JOBS", "2")
    config = build_config(["--example", "flat-graph", "--formulas", "reeb-riemannian"])
    assert config.jobs == 2
    config = build_config(
        ["--example", "flat-graph", "--formulas", "reeb-riemannian", "--jobs", "3"]
    )
    assert config.jobs == 3
