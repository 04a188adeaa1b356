import json

import pytest

from randers_foliations.catalog import EXAMPLES
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
    assert payload["schema_version"] == 2
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


def test_exit_two_on_config_errors(capsys, tmp_path):
    assert main(["--example", "nosuch"]) == 2
    assert main(["--example", "flat-graph", "--formulas", "bogus-formula"]) == 2
    assert main(["--example", "flat-graph", "--res", "abc"]) == 2
    assert main([]) == 2
    # inputs the example builders reject
    assert main(["--example", "flat-graph", "--res", "4"]) == 2
    assert main(["--example", "conformal-torus", "--param", "beta_mode=bogus"]) == 2
    assert main(["--example", "flat-graph", "--param", "beta_sharp=0.9,0.6"]) == 2
    assert main(["--example", "flat-parallel", "--param", "beta_sharp=0.6,0,0.9"]) == 2
    assert main(["--example", "sphere-latitudes", "--res", "128", "--param", "r0=0.2,0.01"]) == 2
    # a grid too large to allocate: numpy refuses the request at once
    assert main(["--example", "flat-graph-tangent", "--res", "100000"]) == 2
    # an excision radius so small that no grid size admits it
    assert main(["--example", "sphere-latitudes", "--param", "r0=5e-324"]) == 2
    # a negative seed and an empty formula selection, as flags
    assert main(["--example", "flat-parallel", "--seed", "-1", "--matrix-identities"]) == 2
    assert main(["--example", "flat-parallel", "--formulas", ","]) == 2
    # bad values from a config file
    for line in ("seed = x", "jobs = 1.5", "matrix_identities = maybe", "seed = -1", "formulas =", "jobs = 0",
                 "scheme = foo", "format = xml"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"example = flat-parallel\n{line}\n")
        assert main(["--config", str(cfg)]) == 2, line
    cfg.write_bytes(b"example = flat-parallel\nres = \xff\n")  # not text
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "|beta| must be < 1" in err  # the tuple reached the builder
    assert "Traceback" not in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    # parameter names the example does not accept, among them the former r0_sweep
    assert main(["--example", "flat-graph", "--param", "amplitdue=0.5", "--formulas", "reeb-riemannian"]) == 2
    assert main(["--example", "flat-parallel", "--param", "r0=0.2"]) == 2
    assert main(["--example", "sphere-latitudes", "--param", "r0_sweep=0.2,0.1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") for line in err)
    assert err[0].endswith("amplitdue for flat-graph; accepted: period, amplitude, beta_sharp")
    assert err[2] == ("error: unknown parameter(s) r0_sweep for sphere-latitudes; "
                      "accepted: r0, beta_mode, eps, asym, eps_prime")
    # a tuple for a scalar parameter, and non-finite numbers
    for value in ("0.1,0.2", "nan", "inf", "-inf", "0.1,nan"):
        assert main(["--example", "flat-graph", "--param", f"amplitude={value}"]) == 2, value
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err)
    assert err[0] == "error: flat-graph: parameter amplitude takes one value, got (0.1, 0.2)"
    assert all(line.endswith("is not finite") for line in err[1:])
    # a worker count other than 1: the sweep points run one at a time
    assert main(["--example", "flat-parallel", "--jobs", "0"]) == 2
    assert main(["--example", "flat-parallel", "--jobs", "-3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: argument --jobs: invalid choice: 0 (choose from 1)",
        "error: argument --jobs: invalid choice: -3 (choose from 1)",
    ]
    # the grid size, wrong arity, a row the selected beta_mode does not read,
    # a choice outside its values, an excision radius the grid cannot
    # resolve (r0 >= 2 * (2 pi / n) needs n >= 252 for the default 0.05; at
    # n = 64, where 0.1 fails too, the error names 0.05, the radius that binds), and
    # 'sound', which is no selector: only 'all', 'full' and formula ids are
    for argv in (
        ["--example", "flat-graph", "--param", "n=20"],
        ["--example", "flat-graph", "--param", "beta_sharp=0.1,0.2,0.3"],
        ["--example", "flat-graph", "--param", "beta_sharp=0.5"],
        ["--example", "conformal-torus", "--param", "beta_mode=riemannian", "--param", "eps1=0.9"],
        ["--example", "sphere-latitudes", "--param", "beta_mode=eigen", "--param", "asym=5"],
        ["--example", "conformal-torus", "--param", "beta_mode=a,b"],
        ["--example", "sphere-latitudes", "--res", "64"],
        ["--example", "sphere-latitudes", "--res", "128"],
        ["--example", "sphere-latitudes", "--res", "251"],
        ["--example", "sphere-latitudes", "--res", "255", "--param", "r0=1.565"],
        ["--example", "sphere-latitudes", "--res", "255", "--param", "r0=1.565,0.2"],
        ["--example", "flat-parallel", "--formulas", "sound"],
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
        "error: sphere-latitudes: excision radius 0.05 is below 2 * (2 pi / n) = 0.1963 "
        "at n = 64; the smallest n that admits it is 252",
        "error: sphere-latitudes: excision radius 0.05 is below 2 * (2 pi / n) = 0.0982 "
        "at n = 128; the smallest n that admits it is 252",
        "error: sphere-latitudes: excision radius 0.05 is below 2 * (2 pi / n) = 0.0501 "
        "at n = 251; the smallest n that admits it is 252",
        # odd n puts no row on the equator: every radius is checked before any build
        *2 * ["error: sphere-latitudes: excision radius 1.565 leaves no node at n = 255; "
              "it must be below 127 pi / n = 1.5646"],
        "error: unknown formula id(s): sound; run --list to see the catalog",
    ]
    # a report path in a missing directory, before the sweep (see
    # test_report_path_is_checked_before_the_sweep), and one that fails to
    # open after it: a directory
    out = tmp_path / "missing" / "report.json"
    argv = ["--example", "flat-parallel", "--res", "12", "--formulas", "reeb-riemannian"]
    assert main(argv + ["--out", str(out)]) == 2
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write report {out}: No such file or directory",
        f"error: cannot write report {tmp_path}: Is a directory",
    ]


def test_report_path_is_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    from randers_foliations import verify

    def no_build(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(verify, "build_example", no_build)
    argv = ["--example", "flat-parallel", "--res", "12", "--formulas", "reeb-riemannian"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = flat-parallel\nres = 12\nout =\n")
    missing = tmp_path / "missing" / "report.json"
    assert main(argv + ["--out", ""]) == 2
    assert main(["--config", str(cfg)]) == 2
    assert main(argv + ["--out", str(missing)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write report '': the path is empty",
        "error: cannot write report '': the path is empty",
        f"error: cannot write report {missing}: No such file or directory",
    ]


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_keeps_the_report_and_the_exit_code(tmp_path, capsys, monkeypatch):
    argv = ["--example", "flat-parallel", "--res", "12"]
    assert main(argv + ["--out", str(tmp_path / "open.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    assert main(argv + ["--out", str(tmp_path / "closed.json")]) == 0
    assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()
    assert main(["--list"]) == 0
    assert capsys.readouterr().err == ""


def test_bad_flags_return_two_with_the_config_files_one_line(tmp_path, capsys):
    # flags and config lines go through one parser: main returns 2 (no SystemExit)
    # and prints one error line, the same for a flag and its config-file twin
    cfg = tmp_path / "bad.cfg"
    for key, value in (("seed", "x"), ("jobs", "1.5"), ("scheme", "foo"), ("format", "xml")):
        assert main(["--example", "flat-parallel", f"--{key}", value]) == 2, key
        cfg.write_text(f"example = flat-parallel\n{key} = {value}\n")
        assert main(["--config", str(cfg)]) == 2, key
        flag_err, file_err = capsys.readouterr().err.splitlines()
        assert flag_err == file_err and flag_err.startswith("error: "), key
    assert main(["--example", "flat-parallel", "--bogus", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unrecognized arguments: --bogus 1"]


def test_misspelled_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = flat-parallel\nsheme = central4\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}:2: unknown key 'sheme'; accepted: example, param, res, formulas, "
        "scheme, seed, jobs, out, format, matrix_identities"
    ]


def test_config_file_and_its_flag_twin_write_the_same_report(tmp_path):
    file_out, flag_out = tmp_path / "file.json", tmp_path / "flag.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "example = conformal-torus\nres = 32,48\nformulas = reeb-riemannian,reeb-finsler\n"
        "scheme = central4  # stencils\nseed = 3\njobs = 1\nformat = json\nmatrix_identities = true\n"
        f"param = beta_mode=riemannian\nparam = phi_amplitude=0.2\nout = {file_out}\n"
    )
    flags = ["--example", "conformal-torus", "--res", "32,48", "--formulas",
             "reeb-riemannian,reeb-finsler", "--scheme", "central4", "--seed", "3", "--jobs", "1",
             "--format", "json", "--matrix-identities", "--param", "beta_mode=riemannian", "--param",
             "phi_amplitude=0.2", "--out", str(flag_out)]
    # the file names every accepted key once (param twice)
    keys = [line.split("=", 1)[0].strip() for line in cfg.read_text().splitlines()]
    assert sorted(set(keys)) == sorted("example param res formulas scheme seed jobs out format "
                                       "matrix_identities".split())
    assert main(["--config", str(cfg)]) == main(flags) == 0
    assert file_out.read_bytes() == flag_out.read_bytes()
    config = json.loads(file_out.read_text())["config"]
    assert config["scheme"] == "central4" and config["seed"] == 3 and config["matrix_identities"]


def test_list_catalog(capsys):
    assert main(["--list"]) == 0
    text = capsys.readouterr().out
    assert "flat-graph" in text
    assert "sphere-latitudes" in text
    assert "reeb-finsler" in text
    # each gate's rule is stated once, and each formula names its gates
    lines = text.splitlines()
    assert "gates:" in lines
    assert "  berwald                sup_nabla_beta < 1e-08" in lines
    assert sum("sup_nabla_beta" in line for line in lines) == 1
    assert any(
        line.endswith("gates: smooth-beta any-of[berwald,beta-zero,singular]")
        for line in lines if "reeb-finsler" in line
    )
    # each example's description and default resolutions, from its catalog row
    for name, example in EXAMPLES.items():
        at = lines.index(f"  {name:<22s} {example.description}")
        below = next(line for line in lines[at:] if "default resolutions:" in line)
        assert below == f"  {'':<22s} default resolutions: {', '.join(map(str, example.resolutions))}"
    # stable ordering across runs
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == text


def test_repeated_formula_id_runs_once(tmp_path, capsys):
    argv = ["--example", "flat-graph", "--res", "16", "--formulas", "reeb-riemannian,reeb-riemannian"]
    assert build_config(argv).formulas == ["reeb-riemannian"]
    assert build_config(argv[:-1] + ["tangency,reeb-riemannian,tangency"]).formulas == [
        "tangency", "reeb-riemannian",
    ]
    out = tmp_path / "twice.json"
    main(argv + ["--out", str(out)])
    assert [r["formula_id"] for r in json.loads(out.read_text())["reports"]] == ["reeb-riemannian"]
    passed_failed = capsys.readouterr().out.splitlines()[-2]
    assert sum(int(passed_failed.split()[i]) for i in (0, 2)) == 1


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
    config = build_config(["--example", "sphere-latitudes", "--param", "r0=0.2,0.1"])
    assert config.params["r0"] == (0.2, 0.1)
    # the excised sphere sweeps r0 in descending order; one value is a one-point sweep
    base = ["--example", "sphere-latitudes", "--res", "128", "--formulas", "reeb-riemannian"]
    out = tmp_path / "sweep.json"
    for sweep, radii in (("0.2,0.3", [0.3, 0.2]), ("0.3", [0.3])):
        assert main(base + ["--param", f"r0={sweep}", "--out", str(out)]) == 0
        conv = json.loads(out.read_text())["reports"][0]["convergence"]
        assert [h for h, _ in conv] == radii


def test_explicit_r0_is_a_one_point_sweep(tmp_path):
    out = tmp_path / "r0.json"
    argv = ["--example", "sphere-latitudes", "--res", "128", "--param", "r0=0.3", "--out", str(out)]
    assert main(argv + ["--formulas", "reeb-riemannian"]) == 0
    [report] = json.loads(out.read_text())["reports"]
    assert [h for h, _ in report["convergence"]] == [0.3]
    # a radius given twice is swept once: the same reports (config.params records the values given)
    twice = tmp_path / "twice.json"
    argv[argv.index("r0=0.3")] = "r0=0.3,0.3"
    assert main(argv[:-1] + [str(twice), "--formulas", "reeb-riemannian"]) == 0
    assert json.loads(twice.read_text())["reports"] == json.loads(out.read_text())["reports"]


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


def test_jobs_flag_and_env(tmp_path, capsys, monkeypatch):
    # the sweep points run one at a time: --jobs (config jobs) accepts 1 alone,
    # and RANDERS_FOLIATE_JOBS is no longer read
    base = ["--example", "flat-parallel", "--res", "12", "--formulas", "reeb-riemannian"]
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("example = flat-parallel\nres = 12\nformulas = reeb-riemannian\njobs = 1\n")
    assert main(base + ["--jobs", "1"]) == 0
    assert main(["--config", str(cfg)]) == 0
    capsys.readouterr()
    cfg.write_text("example = flat-parallel\njobs = 2\n")
    for argv in (base + ["--jobs", "2"], base + ["--jobs", "0"], ["--config", str(cfg)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument --jobs: invalid choice: "), argv
    monkeypatch.setenv("RANDERS_FOLIATE_JOBS", "two")
    assert main(base) == 0
    assert capsys.readouterr().err == ""


def test_an_excised_run_takes_one_grid_size(capsys, monkeypatch):
    # the excised sphere sweeps its radii at one size: a second size is an error
    # before any build, not a silent pick of the finest
    from randers_foliations import verify

    def no_build(spec):
        raise AssertionError("built before the sizes were checked")

    monkeypatch.setattr(verify, "build_example", no_build)
    assert main(["--example", "sphere-latitudes", "--res", "252,256"]) == 2
    assert main(["--example", "sphere-latitudes", "--res", "256,128,256", "--param", "r0=0.2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: sphere-latitudes: an excised run sweeps r0 at one grid size; got sizes 252, 256",
        "error: sphere-latitudes: an excised run sweeps r0 at one grid size; got sizes 128, 256",
    ]


@pytest.mark.parametrize("argv, volume", [
    # the cell volume overflows to inf: the integrals read nan and the report held bare NaN tokens
    (["--example", "flat-graph-tangent", "--param", "period=1e300", "--res", "8",
      "--formulas", "reeb-riemannian,shape-comparison"],
     "(1e+300, 1e+300, 1e+300) at sizes (8, 8, 8) give a cell volume of inf"),
    # it underflows to 0: a traceback from the quadrature ...
    (["--example", "conformal-torus", "--param", "beta_mode=riemannian", "--param", "period=1e-170",
      "--res", "16", "--formulas", "second-order-riemannian"],
     "(1e-170, 1e-170) at sizes (16, 16) give a cell volume of 0"),
    # ... or a refuted display passing at residual 0
    (["--example", "conformal-torus", "--param", "period=1e-170", "--res", "16,24",
      "--formulas", "tilt-balance-printed"],
     "(1e-170, 1e-170) at sizes (16, 16) give a cell volume of 0"),
], ids=["overflow", "underflow-traceback", "underflow-pass"])
def test_a_period_past_the_float_range_is_a_configuration_error(argv, volume, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {argv[1]}: periods {volume}, which is not a finite normal float"
    ]
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_fields_are_a_configuration_error(tmp_path, capsys):
    # e^{2 phi} at phi_amplitude = 100 is finite, but the curvature of a overflows:
    # the quadrature's FloatingPointError is one error line, not a traceback
    out = tmp_path / "r.json"
    argv = ["--example", "conformal-torus", "--param", "beta_mode=riemannian", "--param", "phi_amplitude=100",
            "--res", "16", "--formulas", "second-order-riemannian", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: non-finite integrand at active nodes"]
    assert not out.exists()
