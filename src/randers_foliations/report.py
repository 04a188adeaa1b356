"""Structured residual reports and their serialisation.

One :class:`ResidualReport` records a single (formula, example, resolution)
check: the measured value, which every formula states against zero (so its
residual is ``|value|``), the tolerance actually applied, the verdict, the
check's hypothesis gates, each ``name: [measured, threshold, held]`` (measured
is ``null`` where the run does not measure its key), and the convergence
table across the sweep.  JSON output (schema version 2) is deterministic:
fixed key order, ``repr``-exact floats.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["ResidualReport", "reports_to_json", "reports_to_csv", "SCHEMA_VERSION"]

SCHEMA_VERSION = 2

VERDICTS = ("pass", "fail", "not-applicable")


@dataclass
class ResidualReport:
    formula_id: str
    example: str
    resolution: tuple[int, ...]
    scheme: str
    value: float
    tolerance: float
    verdict: str
    gates: dict[str, list] = field(default_factory=dict)
    convergence: list[tuple[float, float]] = field(default_factory=list)
    detail: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")

    @property
    def residual(self) -> float:
        return abs(self.value)

    def to_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "example": self.example,
            "resolution": list(self.resolution),
            "scheme": self.scheme,
            "value": self.value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "gates": {k: self.gates[k] for k in sorted(self.gates)},
            "convergence": [[h, r] for h, r in self.convergence],
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }

    def summary_line(self) -> str:
        return (
            f"[{self.verdict:>14s}] {self.formula_id:<28s} {self.example:<28s} "
            f"res={'x'.join(str(s) for s in self.resolution):<12s} "
            f"residual={self.residual:.3e} tol={self.tolerance:.1e}"
        )


def _sort_key(r: ResidualReport):
    return (r.formula_id, r.example, r.resolution)


def reports_to_json(reports: list[ResidualReport], config: dict | None = None) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config or {},
        "reports": [r.to_dict() for r in sorted(reports, key=_sort_key)],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def reports_to_csv(reports: list[ResidualReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["formula_id", "example", "resolution", "residual", "verdict"])
    for r in sorted(reports, key=_sort_key):
        writer.writerow(
            [r.formula_id, r.example, "x".join(str(s) for s in r.resolution), repr(r.residual), r.verdict]
        )
    return buf.getvalue()
