"""Worked example: entropy-ball risk grid with bounds and an MC cross-check.

Writes three CSVs under results/: closed-form bounds over the grid, exact
risks of both estimators on the matching hard families, and a Monte-Carlo
re-estimate of the same cells (seeded, byte-reproducible).
"""

from __future__ import annotations

import pathlib
import sys

from l1minimax.cli import main

GRID = [
    "--grid-H", "1",
    "--grid-c", "0.3", "0.5", "0.7",
    "--grid-n", "1000", "10000", "100000",
]

# (CLI arguments, output file under results/)
STEPS = [
    (["bounds"] + GRID + ["--grid-eta", "1.1"], "bounds_grid.csv"),
    (["exact-risk", "--family", "entropy-ball"] + GRID
     + ["--estimator", "empirical", "--estimator", "threshold",
        "--grid-eta", "1.1"], "exact_risk_grid.csv"),
    (["mc", "--family", "entropy-ball"] + GRID
     + ["--replicates", "2000", "--seed", "7"], "mc_risk_grid.csv"),
]


def run() -> int:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    for args, name in STEPS:
        out = out_dir / name
        print(f"== {' '.join(args[:2])} -> {out}")
        code = main(args + ["--out", str(out)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
