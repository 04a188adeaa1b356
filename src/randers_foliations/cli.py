"""Command-line front end: example selection, resolution sweeps, reports.

Examples::

    randers-foliate --list
    randers-foliate --example flat-graph --res 32,64,128 --formulas all --out report.json
    randers-foliate --example sphere-latitudes --param r0=0.05 --formulas reeb-finsler
    randers-foliate --example conformal-torus --param beta_mode=riemannian --formulas sound

Exit status: 0 when every applicable check passes, 1 when any check fails,
2 on configuration errors.  ``--formulas all`` selects every check expected
to hold; ``--formulas full`` additionally includes the verbatim
transcriptions of published displays that the convergence tables refute
(those runs exit 1 by design; the failures are the finding, documented in
the README).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from .catalog import (
    ExampleError,
    ExampleSpec,
    default_resolutions,
    example_info,
    example_names,
    example_params,
)
from .matinv import verify_appendix_identities
from .report import ResidualReport, reports_to_csv, reports_to_json
from .verify import FORMULAS, formula_ids, run_formulas


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    example: str
    params: dict = field(default_factory=dict)
    resolutions: list[int] = field(default_factory=list)
    formulas: list[str] = field(default_factory=list)
    scheme: str = "spectral"
    seed: int = 0
    jobs: int = 1
    out: str | None = None
    fmt: str = "json"
    matrix_identities: bool = False

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "resolutions": list(self.resolutions),
            "formulas": list(self.formulas),
            "scheme": self.scheme,
            "seed": self.seed,
            "matrix_identities": self.matrix_identities,
        }


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_value(text: str):
    """A number, a tuple of numbers (comma-separated), or the text itself."""
    if "," not in text:
        return _parse_scalar(text)
    items = tuple(_parse_scalar(tok.strip()) for tok in text.split(","))
    return items if all(isinstance(v, (int, float)) for v in items) else text


def _parse_param(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"parameter {item!r} is not of the form key=value")
    key, value = item.split("=", 1)
    return key.strip(), _parse_value(value.strip())


def _read_config_file(path: str) -> dict:
    values: dict = {"param": []}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "param":
                    values["param"].append(value)
                else:
                    values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve_formulas(selector: str) -> list[str]:
    known = formula_ids()
    if selector == "full":
        return known
    if selector in ("all", "sound"):
        return [f for f in known if not FORMULAS[f].refuted]
    chosen = [tok.strip() for tok in selector.split(",") if tok.strip()]
    unknown = [tok for tok in chosen if tok not in known]
    if unknown:
        raise ConfigError(
            f"unknown formula id(s): {', '.join(unknown)}; run --list to see the catalog"
        )
    return chosen


def build_config(argv: list[str]) -> RunConfig | None:
    parser = argparse.ArgumentParser(
        prog="randers-foliate",
        description="verify integral formulas of codimension-one foliated Randers spaces",
    )
    parser.add_argument("--example", help="catalog example name")
    parser.add_argument("--param", action="append", default=[], help="example parameter key=value")
    parser.add_argument("--res", help="comma-separated grid sizes, e.g. 32,64,128")
    parser.add_argument(
        "--formulas",
        help="'all' (checks expected to hold), 'full' (including refuted "
        "published displays), or comma-separated formula ids",
    )
    parser.add_argument("--scheme", choices=("spectral", "central4"), help="derivative scheme")
    parser.add_argument("--seed", type=int, help="seed for randomized identity checks")
    parser.add_argument("--jobs", type=int, help="parallel sweep workers")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--list", action="store_true", help="list examples and formulas")
    parser.add_argument(
        "--matrix-identities",
        action="store_true",
        help="also run the randomized matrix-invariant identity suite",
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_catalog()
        return None

    file_vals = _read_config_file(args.config) if args.config else {"param": []}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            return file_vals[key]
        return default

    example = pick(args.example, "example", None)
    if not example:
        raise ConfigError("no example selected; use --example or a config file (or --list)")
    if example not in example_names():
        raise ConfigError(f"unknown example {example!r}; available: {', '.join(example_names())}")

    params = {}
    for item in list(file_vals["param"]) + list(args.param):
        key, value = _parse_param(item)
        params[key] = value

    res_text = pick(args.res, "res", None)
    if res_text is None:
        resolutions = list(default_resolutions(example))
    else:
        try:
            resolutions = [int(tok) for tok in str(res_text).split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --res value {res_text!r}") from exc
        if not resolutions:
            raise ConfigError("--res must name at least one resolution")

    formulas = _resolve_formulas(str(pick(args.formulas, "formulas", "all")))
    scheme = str(pick(args.scheme, "scheme", "spectral"))
    if scheme not in ("spectral", "central4"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    seed = int(pick(args.seed, "seed", 0))
    jobs_env = os.environ.get("RANDERS_FOLIATE_JOBS")
    jobs = int(pick(args.jobs, "jobs", jobs_env if jobs_env is not None else 1))
    fmt = str(pick(args.fmt, "format", "json"))
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {fmt!r}")
    out = pick(args.out, "out", None)
    matrix_identities = bool(args.matrix_identities or file_vals.get("matrix_identities"))
    return RunConfig(
        example=example,
        params=params,
        resolutions=resolutions,
        formulas=formulas,
        scheme=scheme,
        seed=seed,
        jobs=max(1, jobs),
        out=out,
        fmt=fmt,
        matrix_identities=matrix_identities,
    )


def _print_catalog():
    print("examples:")
    for name in example_names():
        print(f"  {name:<22s} {example_info(name)}")
        print(f"  {'':<22s} parameters: {example_params(name)}")
        print(f"  {'':<22s} default resolutions: {', '.join(str(n) for n in default_resolutions(name))}")
    print("\nformulas:")
    for fid in formula_ids():
        f = FORMULAS[fid]
        gates = ",".join(f.requires) if f.requires else "-"
        extra = f" any-of[{','.join(f.any_of)}]" if f.any_of else ""
        note = "  [published display under test]" if f.refuted else ""
        print(f"  {fid:<36s} gates: {gates}{extra}{note}")
        print(f"  {'':<36s} {f.description}")


def _matrix_identity_report(seed: int) -> ResidualReport:
    residuals = verify_appendix_identities(seed=seed, trials=100, m_max=4)
    worst = max(residuals.values())
    return ResidualReport(
        formula_id="matrix-identities",
        example="random-matrix-tuples",
        resolution=(100,),
        scheme="exact",
        value=worst,
        expected=0.0,
        tolerance=1e-9,
        verdict="pass" if worst < 1e-9 else "fail",
        hypotheses={},
        convergence=[],
        detail=dict(sorted(residuals.items())),
    )


def run(config: RunConfig) -> tuple[int, list[ResidualReport]]:
    spec = ExampleSpec(config.example, dict(config.params))
    reports = run_formulas(
        spec, config.formulas, config.resolutions, config.scheme, jobs=config.jobs
    )
    if config.matrix_identities:
        reports.append(_matrix_identity_report(config.seed))
    failed = any(r.verdict == "fail" for r in reports)
    return (1 if failed else 0), reports


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        if config is None:
            return 0
        code, reports = run(config)
    except (ConfigError, ExampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print(r.summary_line())
    counts = {
        "pass": sum(r.verdict == "pass" for r in reports),
        "fail": sum(r.verdict == "fail" for r in reports),
        "not-applicable": sum(r.verdict == "not-applicable" for r in reports),
    }
    print(
        f"\n{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['not-applicable']} not applicable"
    )
    if config.out:
        payload = (
            reports_to_json(reports, config.to_dict())
            if config.fmt == "json"
            else reports_to_csv(reports)
        )
        with open(config.out, "w") as fh:
            fh.write(payload)
        print(f"report written to {config.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
