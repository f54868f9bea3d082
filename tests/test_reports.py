"""Golden reports: the committed results/*.csv, regenerated in-process.

Runs the eight commands of scripts/run_risk_grid.py and
scripts/run_trend_sweeps.py through `cli.main` and compares every output
byte for byte with the committed file, so a change that moves any reported
number has to re-baseline results/ on purpose.
"""

import pathlib

import pytest

from l1minimax.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

GRID = ["--grid-H", "1", "--grid-c", "0.3", "0.5", "0.7",
        "--grid-n", "1000", "10000", "100000"]

RISK_GRID = {
    "bounds_grid.csv": ["bounds"] + GRID + ["--grid-eta", "1.1"],
    "exact_risk_grid.csv": (["exact-risk", "--family", "entropy-ball"] + GRID
                            + ["--estimator", "empirical", "--estimator", "threshold",
                               "--grid-eta", "1.1"]),
    "mc_risk_grid.csv": (["mc", "--family", "entropy-ball"] + GRID
                         + ["--replicates", "2000", "--seed", "7"]),
}

# PASS lines each reproduce target prints with its default grids
TREND_PASSES = {"cor2": 2, "cor3-4": 2, "cor6": 2, "cor7": 1, "cor9": 3}


@pytest.mark.parametrize("name", sorted(RISK_GRID))
def test_risk_grid_report_is_golden(tmp_path, name):
    out = tmp_path / name
    assert main(RISK_GRID[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (RESULTS / name).read_bytes()


@pytest.mark.parametrize("target", sorted(TREND_PASSES))
def test_trend_report_is_golden(tmp_path, capsys, target):
    out = tmp_path / f"trend_{target}.csv"
    assert main(["reproduce", target, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == TREND_PASSES[target]
    assert not any("FAIL" in line for line in lines)
    assert out.read_bytes() == (RESULTS / f"trend_{target}.csv").read_bytes()
