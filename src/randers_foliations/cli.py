"""Command-line front end: example selection, resolution sweeps, reports.

Examples::

    randers-foliate --list
    randers-foliate --example flat-graph --res 32,64,128 --formulas all --out report.json
    randers-foliate --example sphere-latitudes --param r0=0.05 --formulas reeb-finsler
    randers-foliate --example sphere-latitudes --param r0=0.2,0.1 --formulas reeb-finsler
    randers-foliate --example conformal-torus --param beta_mode=riemannian --formulas all

``--param key=value`` sets one row of the example's parameter table; ``--list``
shows each row's kind (number, ``tuple[k]``, ``tuple[1+]`` or choice), bounds
and default, per ``beta_mode`` where only some modes read the row.  Unknown
names, rows the selected ``beta_mode`` does not read, wrong arity and values
out of bounds are configuration errors.  ``--res`` alone sets the grid size
``n``.  The excised sphere sweeps the radii of ``r0``, one or several.

A ``--config`` file holds flat ``key = value`` lines (``#`` starts a comment).
Each line becomes the flag it names, placed before argv, so one parser checks
both and flags override the file.  A key is a flag's long name with ``_`` for
``-``, every flag but ``--help``, ``--config`` and ``--list``: example, param
(repeatable), res, formulas, scheme, seed, jobs (only 1), out, format,
matrix_identities (a switch: true, false, 1 or 0).  An unknown key and every
bad flag or value end in one ``error:`` line and exit status 2.

Exit status: 0 when every applicable check passes, 1 when any check fails,
2 on configuration errors (a grid too large to allocate, an empty ``--out``,
one in a missing directory and one naming a directory among them) and when
the report cannot be written.  A reader that closes stdout ends the printed
output only: the report is still written and the exit status is the verdict's.
``--formulas all`` selects every check expected to hold; ``--formulas full``
additionally includes the verbatim transcriptions of published displays
that the convergence tables refute (those runs exit 1 by design; the
failures are the finding, documented in the README).

The parser declares every setting and every default once.  From Python,
``run(build_config(argv))`` runs what ``randers-foliate ARGV`` runs, with the
same defaults and checks, and returns the exit status and the reports;
``report_config`` gives the settings block of the JSON report.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .catalog import EXAMPLES, ExampleError, ExampleSpec, example_names, param_help, parse_params
from .grid import SCHEMES
from .matinv import verify_appendix_identities
from .report import VERDICTS, ResidualReport, reports_to_csv, reports_to_json
from .verify import FORMULAS, GATES, formula_ids, run_formulas


class ConfigError(Exception):
    pass


def _parse_int(value, name: str, least: int) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {number}")
    return number


def _split_param(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ConfigError(f"parameter {item!r} is not of the form key=value")
    key, value = item.split("=", 1)
    if not key.strip():
        raise ConfigError(f"parameter {item!r} has an empty name")
    return key.strip(), value.strip()


def _read_config_file(path: str, keys: dict[str, argparse.Action]) -> list[str]:
    """The flag tokens of a ``--config`` file, one a line (see the module docstring);
    ``keys`` maps each config key to the parser action of its flag."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line, where = raw.split("#", 1)[0].strip(), f"{path}:{lineno}"
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}; accepted: {', '.join(keys)}")
        flag = keys[key].option_strings[-1]
        if keys[key].nargs != 0:
            tokens.append(f"{flag}={value}")  # one token: a value may start with '-'
        elif value.lower() in ("true", "1"):
            tokens.append(flag)
        elif value.lower() not in ("false", "0"):
            raise ConfigError(f"{where}: {key} must be true, false, 1 or 0, got {value!r}")
    return tokens


def _resolve_formulas(selector: str) -> list[str]:
    known = formula_ids()
    if selector == "full":
        return known
    if selector == "all":
        return [f for f in known if not FORMULAS[f].refuted]
    chosen = list(dict.fromkeys(tok.strip() for tok in selector.split(",") if tok.strip()))
    unknown = [tok for tok in chosen if tok not in known]
    if unknown:
        raise ConfigError(
            f"unknown formula id(s): {', '.join(unknown)}; run --list to see the catalog"
        )
    if not chosen:
        raise ConfigError("--formulas selects no formula; give 'all', 'full' or formula ids")
    return chosen


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line and exit 2 from main, not a usage block
        raise ConfigError(message)


def build_config(argv: list[str]) -> argparse.Namespace | None:
    """The run that ``argv`` describes: the parser's namespace, every default applied and checked.

    ``params``, ``resolutions`` and ``formulas`` are resolved in place: the
    example's parsed parameters, the grid sizes (the example's defaults
    without ``--res``) and the selected formula ids.  Prints the catalog and
    returns None after ``--list``; raises ``ConfigError`` on a bad setting.
    """
    parser = _Parser(
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
    parser.add_argument("--scheme", choices=SCHEMES, help="derivative scheme")
    parser.add_argument(
        "--seed", type=lambda v: _parse_int(v, "seed", 0), help="seed for randomized identity checks"
    )
    parser.add_argument("--jobs", type=int, choices=(1,), help="sweep workers: only 1, points run in turn")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--list", action="store_true", help="list examples, gates and formulas")
    parser.add_argument(
        "--matrix-identities",
        action="store_true",
        help="also run the randomized matrix-invariant identity suite",
    )
    parser.set_defaults(formulas="all", scheme="spectral", seed=0, fmt="json")
    args = parser.parse_args(argv)
    if args.list:
        _print(*_catalog_lines())
        return None
    # a config key is a flag's long name, in declaration order; --config and --list are no settings
    keys = {opt[2:].replace("-", "_"): action for action in parser._actions for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config", "--list")}
    args = parser.parse_args((_read_config_file(args.config, keys) if args.config else []) + argv)

    if not args.example:
        raise ConfigError("no example selected; use --example or a config file (or --list)")
    texts = dict(_split_param(item) for item in args.param)
    if "n" in texts:
        raise ConfigError("the grid size n is not a --param; set it with --res")
    try:
        args.params = parse_params(args.example, texts)
    except ExampleError as exc:
        raise ConfigError(str(exc)) from None

    if args.out == "":
        raise ConfigError("cannot write report '': the path is empty")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"cannot write report {args.out}: No such file or directory")
    if args.out and os.path.isdir(args.out):
        raise ConfigError(f"cannot write report {args.out}: Is a directory")
    if args.res is None:
        args.resolutions = list(EXAMPLES[args.example].resolutions)
    else:
        try:
            args.resolutions = [int(tok) for tok in args.res.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --res value {args.res!r}") from exc
        if not args.resolutions:
            raise ConfigError("--res must name at least one resolution")
    args.formulas = _resolve_formulas(args.formulas)
    return args


def report_config(config: argparse.Namespace) -> dict:
    """The ``config`` block of a report: the settings that decide its verdicts."""
    return {
        "example": config.example,
        "params": {k: config.params[k] for k in sorted(config.params)},
        "resolutions": list(config.resolutions),
        "formulas": list(config.formulas),
        "scheme": config.scheme,
        "seed": config.seed,
        "matrix_identities": config.matrix_identities,
    }


def _catalog_lines() -> list[str]:
    lines = ["examples:"]
    for name in example_names():
        example = EXAMPLES[name]
        lines.append(f"  {name:<22s} {example.description}")
        lines.append(f"  {'':<22s} parameters (the grid size n is set by --res):")
        lines += [f"  {'':<22s}   {line}" for line in param_help(name)]
        lines.append(f"  {'':<22s} default resolutions: {', '.join(map(str, example.resolutions))}")
    lines.append("\ngates:")
    lines += [f"  {name:<22s} {key} {op} {threshold:g}" for name, (key, _, op, threshold) in GATES.items()]
    lines.append("\nformulas:")
    for fid in formula_ids():
        f = FORMULAS[fid]
        note = "  [published display under test]" if f.refuted else ""
        lines.append(f"  {fid:<36s} gates: {f.gate_label}{note}")
        lines.append(f"  {'':<36s} {f.description}")
    return lines


def _print(*lines: str) -> None:
    """Print to stdout; a reader that closed it ends the printed output, not the run."""
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:  # later prints and the interpreter's exit flush go nowhere
        sys.stdout = open(os.devnull, "w")


def _matrix_identity_report(seed: int) -> ResidualReport:
    residuals = verify_appendix_identities(seed=seed, trials=100, m_max=4)
    worst = max(residuals.values())
    return ResidualReport(
        formula_id="matrix-identities", example="random-matrix-tuples", resolution=(100,), scheme="exact",
        value=worst, tolerance=1e-9, verdict="pass" if worst < 1e-9 else "fail", gates={},
        detail=dict(sorted(residuals.items())),
    )


def run(config: argparse.Namespace) -> tuple[int, list[ResidualReport]]:
    spec = ExampleSpec(config.example, dict(config.params))
    reports = run_formulas(spec, config.formulas, config.resolutions, config.scheme)
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
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # underflow stays silent
            code, reports = run(config)
    except (ConfigError, ExampleError, FloatingPointError) as exc:  # the last: a float error or fields not SPD
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large to allocate is a configuration error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    counts = {v: sum(r.verdict == v for r in reports) for v in VERDICTS}
    _print(*(r.summary_line() for r in reports), f"\n{counts['pass']} passed, {counts['fail']} failed, "
           f"{counts['not-applicable']} not applicable")
    if config.out is not None:
        payload = (reports_to_json(reports, report_config(config)) if config.fmt == "json"
                   else reports_to_csv(reports))
        try:
            with open(config.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report {config.out}: {exc.strerror}", file=sys.stderr)
            return 2
        _print(f"report written to {config.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
