"""Machine-readable experiment reports.

One row per grid cell, a dict from column names to values, written in a
fixed column order: parameters alphabetically, then exact and Monte-Carlo
results, then bound values alphabetically, then vacuous flags, then
error / seed / runtime_ms (always empty).  CSV uses 12 significant digits,
UTF-8 and LF line endings; JSON mirrors the field names.
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


def record(row: dict) -> dict:
    """Every column of `row`, a dict from column names to values, in column
    order: None where the row has no value, and a `BoundValue` split into its
    value column and its vacuous column.  A key that is not a column raises."""
    unknown = row.keys() - COLUMNS
    if unknown:
        raise KeyError(f"not report columns: {sorted(unknown)}")
    rec = dict.fromkeys(COLUMNS)
    rec.update(row)
    for name, column in zip(FLAGGED_BOUNDS, VACUOUS_COLUMNS):
        bound = rec[name]
        if isinstance(bound, BoundValue):
            rec[name], rec[column] = bound.value, bound.vacuous
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
        rec = record(row)
        writer.writerow([_format_cell(rec[name]) for name in COLUMNS])
    return buffer.getvalue()


def render_json(rows) -> str:
    import json
    return json.dumps([record(row) for row in rows], indent=2) + "\n"


def write_report(rows, fmt: str, out_path: Optional[str]) -> None:
    """Render rows as `fmt`, "csv" or "json", and write them to a file (or
    stdout when no path given)."""
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
