"""Machine-readable experiment reports.

One row per grid cell with a fixed column order: parameters alphabetically,
then exact and Monte-Carlo results, then bound values alphabetically, then
vacuous flags, then error / seed / runtime.  CSV uses 12 significant
digits, UTF-8 and LF line endings; JSON mirrors the same field names.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .bounds import REPORTED_BOUNDS, BoundValue

PARAM_COLUMNS = ["H", "S", "c", "estimator", "eta", "family", "n", "zeta"]

RESULT_COLUMNS = ["exact_risk", "mc_mean", "mc_ci_lo", "mc_ci_hi", "mc_within_ci"]

BOUND_COLUMNS = sorted(REPORTED_BOUNDS)

FLAGGED_BOUNDS = [name for name in BOUND_COLUMNS if REPORTED_BOUNDS[name].flagged]

VACUOUS_COLUMNS = [name + "_vacuous" for name in FLAGGED_BOUNDS]

META_COLUMNS = ["error", "seed", "runtime_ms"]

COLUMNS = PARAM_COLUMNS + RESULT_COLUMNS + BOUND_COLUMNS + VACUOUS_COLUMNS + META_COLUMNS


@dataclass
class ReportRow:
    """One experiment cell: its parameters, results, bounds and metadata.

    `bounds` holds each bound as its function returns it; a `BoundValue`
    fills both its value column and its vacuous column."""

    params: dict = field(default_factory=dict)
    exact_risk: Optional[float] = None
    mc_mean: Optional[float] = None
    mc_ci_lo: Optional[float] = None
    mc_ci_hi: Optional[float] = None
    mc_within_ci: Optional[bool] = None
    bounds: dict = field(default_factory=dict)
    error: Optional[str] = None
    seed: Optional[int] = None
    runtime_ms: Optional[float] = None

    def record(self) -> dict:
        rec = {name: self.params.get(name) for name in PARAM_COLUMNS}
        rec.update((name, getattr(self, name)) for name in RESULT_COLUMNS)
        for name in BOUND_COLUMNS:
            bound = self.bounds.get(name)
            rec[name] = bound.value if isinstance(bound, BoundValue) else bound
        for name, column in zip(FLAGGED_BOUNDS, VACUOUS_COLUMNS):
            rec[column] = getattr(self.bounds.get(name), "vacuous", None)
        rec.update((name, getattr(self, name)) for name in META_COLUMNS)
        return rec


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        rec = row.record()
        writer.writerow([_format_cell(rec[name]) for name in COLUMNS])
    return buffer.getvalue()


def render_json(rows) -> str:
    return json.dumps([row.record() for row in rows], indent=2) + "\n"


def write_report(rows, fmt: str, out_path: Optional[str]) -> None:
    """Render rows and write them to a file (or stdout when no path given)."""
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = render_json(rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
