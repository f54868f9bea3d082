"""Machine-readable experiment reports.

One row per grid cell with a fixed column order: parameters alphabetically,
then exact and Monte-Carlo results, then bound values alphabetically, then
vacuous flags, then error / seed / runtime_ms (always empty).  CSV uses 12
significant digits, UTF-8 and LF line endings; JSON mirrors the field names.
"""

from __future__ import annotations

import io
import sys
from typing import Optional

from .bounds import REPORTED_BOUNDS, BoundValue

PARAM_COLUMNS = ["H", "S", "c", "estimator", "eta", "family", "n", "zeta"]

RESULT_COLUMNS = ["exact_risk", "mc_mean", "mc_ci_lo", "mc_ci_hi", "mc_within_ci"]

BOUND_COLUMNS = sorted(REPORTED_BOUNDS)

FLAGGED_BOUNDS = [name for name in BOUND_COLUMNS if REPORTED_BOUNDS[name].flagged]

VACUOUS_COLUMNS = [name + "_vacuous" for name in FLAGGED_BOUNDS]

META_COLUMNS = ["error", "seed", "runtime_ms"]

COLUMNS = PARAM_COLUMNS + RESULT_COLUMNS + BOUND_COLUMNS + VACUOUS_COLUMNS + META_COLUMNS


class ReportRow:
    """One experiment cell: its parameters, results, bounds and metadata.

    `bounds` holds each bound as its function returns it; a `BoundValue`
    fills both its value column and its vacuous column.  The one mutable
    record: a command fills its results in after construction."""

    def __init__(self, params: Optional[dict] = None, exact_risk: Optional[float] = None,
                 mc_mean: Optional[float] = None, mc_ci_lo: Optional[float] = None,
                 mc_ci_hi: Optional[float] = None, mc_within_ci: Optional[bool] = None,
                 bounds: Optional[dict] = None, error: Optional[str] = None,
                 seed: Optional[int] = None):
        self.params = {} if params is None else params
        self.exact_risk = exact_risk
        self.mc_mean = mc_mean
        self.mc_ci_lo = mc_ci_lo
        self.mc_ci_hi = mc_ci_hi
        self.mc_within_ci = mc_within_ci
        self.bounds = {} if bounds is None else bounds
        self.error = error
        self.seed = seed

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def record(self) -> dict:
        rec = {name: self.params.get(name) for name in PARAM_COLUMNS}
        rec.update((name, getattr(self, name)) for name in RESULT_COLUMNS)
        for name in BOUND_COLUMNS:
            bound = self.bounds.get(name)
            rec[name] = bound.value if isinstance(bound, BoundValue) else bound
        for name, column in zip(FLAGGED_BOUNDS, VACUOUS_COLUMNS):
            rec[column] = getattr(self.bounds.get(name), "vacuous", None)
        rec.update(error=self.error, seed=self.seed, runtime_ms=None)
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
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        rec = row.record()
        writer.writerow([_format_cell(rec[name]) for name in COLUMNS])
    return buffer.getvalue()


def render_json(rows) -> str:
    import json
    return json.dumps([row.record() for row in rows], indent=2) + "\n"


def write_report(rows, fmt: str, out_path: Optional[str]) -> None:
    """Render rows as `fmt`, "csv" or "json", and write them to a file (or
    stdout when no path given)."""
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
