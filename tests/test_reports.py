"""Golden reports: the committed results/*.csv, regenerated in-process.

Runs the eight commands of scripts/run_risk_grid.py and
scripts/run_trend_sweeps.py, read from the scripts themselves, through
`cli.main` and compares every output byte for byte with the committed
file, so a change that moves any reported number has to re-baseline
results/ on purpose.  With -v the same files come out, and the time of
each report row goes to stderr.
"""

import pathlib
import re
import runpy

import pytest

from l1minimax.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

RISK_GRID = {name: args for args, name in
             runpy.run_path(str(ROOT / "scripts" / "run_risk_grid.py"))["STEPS"]}
TREND_TARGETS = runpy.run_path(str(ROOT / "scripts" / "run_trend_sweeps.py"))["TARGETS"]

# PASS lines each reproduce target prints with its default grids
TREND_PASSES = {"cor2": 2, "cor3-4": 2, "cor6": 2, "cor7": 1, "cor9": 3}


@pytest.mark.parametrize("name", sorted(RISK_GRID))
def test_risk_grid_report_is_golden(tmp_path, name):
    out = tmp_path / name
    assert main(RISK_GRID[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (RESULTS / name).read_bytes()


@pytest.mark.parametrize("target", TREND_TARGETS)
def test_trend_report_is_golden(tmp_path, capsys, target):
    out = tmp_path / f"trend_{target}.csv"
    assert main(["reproduce", target, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == TREND_PASSES[target]
    assert not any("FAIL" in line for line in lines)
    assert out.read_bytes() == (RESULTS / f"trend_{target}.csv").read_bytes()


def test_verbose_reports_are_golden_and_log_each_cell_time(tmp_path, capsys):
    # one DEBUG line per report row, in row order, for every command
    timing = re.compile(r"DEBUG l1minimax\.cli: (\S+) cell (\d+) of (\d+) \{.*\}: "
                        r"\d+\.\d{3} ms")
    commands = [(args, name) for name, args in sorted(RISK_GRID.items())]
    commands += [(["reproduce", target], f"trend_{target}.csv") for target in TREND_TARGETS]
    for args, name in commands:
        out = tmp_path / name
        assert main(args + ["-v", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        logged = [match.groups() for match in map(timing.fullmatch, err.splitlines()) if match]
        report = out.read_bytes()
        assert report == (RESULTS / name).read_bytes(), name
        cells = report.count(b"\n") - 1
        assert logged == [(args[0], str(i), str(cells)) for i in range(1, cells + 1)], name
