import csv
import functools
import gc
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import l1minimax
from l1minimax.cli import load_family_file, main
from l1minimax.report import COLUMNS, PARAM_COLUMNS


def run(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def parse_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0]
    return cols, [dict(zip(cols, line)) for line in rows[1:]]


class TestBoundsCommand:
    def test_header_and_values(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--grid-H", "1", "--grid-n", "1000000",
                        "--grid-eta", "1.1", "--grid-c", "0.9")
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols == COLUMNS
        assert len(rows) == 1
        row = rows[0]
        assert row["mle_entropy_upper"] == "0.304461146049"
        assert row["threshold_upper"] == "0.242744062333"
        assert row["threshold_upper_vacuous"] == "false"
        assert row["runtime_ms"] == ""

    def test_s_one_gives_zero_simple_bound(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--grid-S", "1", "--grid-n", "100")
        _, rows = parse_csv(out)
        assert rows[0]["mle_upper_simple"] == "0"
        assert rows[0]["classical_constant"] == ""  # needs S >= 2

    def test_vacuous_flagging(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--grid-H", "1", "--grid-n", "1000",
                        "--grid-eta", "1.5")
        _, rows = parse_csv(out)
        assert rows[0]["threshold_upper"] == "inf"
        assert rows[0]["threshold_upper_vacuous"] == "true"

    @pytest.mark.parametrize("H, c", [("1", "0.999"), ("800", "0.5")],
                             ids=["n_min-past-floats", "e^H-past-floats"])
    def test_bound_domain_past_float_range_keeps_the_row(self, tmp_path, H, c):
        # (1-c)^(-1/(1-c)) = e^6907.76 at c = 0.999; e^800 overflows too.  The
        # floors that need n above them are left out, the rest of the row stays
        code, out = run(tmp_path, "bounds", "--grid-H", H, "--grid-n", "1000",
                        "--grid-c", c, "--grid-eta", "1.1")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["error"] == ""
        assert row["mle_entropy_lower"] == ""
        assert row["mle_entropy_upper"] != "" and row["mle_entropy_upper_vacuous"] == "false"
        assert row["threshold_upper"] == "inf" and row["threshold_upper_vacuous"] == "true"

    def test_bound_past_float_range_drops_only_itself(self, tmp_path):
        # S = 10^400 overflows the S/n bounds; the entropy-ball bounds stay
        code, out = run(tmp_path, "bounds", "--grid-S", str(10**400), "--grid-n", "10",
                        "--grid-H", "1", "--grid-c", "0.5", "--grid-eta", "1.1")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["error"] == ""
        assert all(row[name] == "" for name in (
            "mle_upper_simple", "mle_upper_tight", "classical_constant"))
        assert all(row[name] != "" for name in (
            "minimax_entropy_lower", "mle_entropy_lower", "mle_entropy_upper",
            "simplex_lower", "threshold_upper"))
        assert all(row[name + "_vacuous"] in ("true", "false") for name in (
            "minimax_entropy_lower", "mle_entropy_upper", "simplex_lower", "threshold_upper"))

    def test_nan_entropy_budget_has_no_entropy_bounds(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--grid-H", "nan", "--grid-n", "1000",
                        "--grid-c", "0.5", "--grid-eta", "1.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] == ""
        assert all(rows[0][name] == "" for name in (
            "mle_entropy_upper", "mle_entropy_upper_vacuous", "threshold_upper",
            "threshold_upper_vacuous", "mle_entropy_lower", "minimax_entropy_lower"))

    def test_infinite_eta_has_no_upper_entropy_bounds(self, tmp_path):
        # eta is a finite exponent: inf is outside both upper bounds' domain
        code, out = run(tmp_path, "bounds", "--grid-H", "1", "--grid-n", "1000",
                        "--grid-c", "0.5", "--grid-eta", "inf")
        assert code == 0
        _, [row] = parse_csv(out)
        assert row["error"] == "" and row["minimax_entropy_lower"] != ""
        assert all(row[name] == "" for name in (
            "mle_entropy_upper", "mle_entropy_upper_vacuous", "threshold_upper",
            "threshold_upper_vacuous"))

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("bounds", "--grid-H", "1", "--grid-n", "100", "1000",
                "--grid-c", "0.3", "0.5", "--grid-eta", "1.2")
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--grid-S", "5", "--grid-n", "100",
                        "--format", "json", name="out.json")
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert isinstance(rows, list)
        assert list(rows[0].keys()) == COLUMNS
        assert rows[0]["mle_upper_simple"] == 0.2
        assert rows[0]["S"] == 5


class TestExactRiskCommand:
    def test_uniform_cell(self, tmp_path):
        code, out = run(tmp_path, "exact-risk", "--family", "uniform",
                        "--grid-S", "2", "--grid-n", "4")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["exact_risk"] == "0.375"
        assert rows[0]["estimator"] == "empirical"

    def test_entropy_ball_exceeds_floor(self, tmp_path):
        code, out = run(tmp_path, "exact-risk", "--family", "entropy-ball",
                        "--grid-H", "1", "--grid-c", "0.5", "--grid-n", "1000")
        _, rows = parse_csv(out)
        risk = float(rows[0]["exact_risk"])
        floor = float(rows[0]["mle_entropy_lower"])
        assert floor == pytest.approx(0.144186923414, rel=1e-11)
        assert risk >= floor

    def test_entropy_ball_near_c_one_keeps_its_risk(self, tmp_path):
        code, out = run(tmp_path, "exact-risk", "--family", "entropy-ball",
                        "--grid-H", "1", "--grid-c", "0.999", "--grid-n", "1000")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] == ""
        assert float(rows[0]["exact_risk"]) > 0
        assert rows[0]["minimax_entropy_lower_vacuous"] == "true"

    def test_threshold_estimator_rows(self, tmp_path):
        code, out = run(tmp_path, "exact-risk", "--family", "entropy-ball",
                        "--grid-H", "1", "--grid-c", "0.5", "--grid-n", "1000",
                        "--estimator", "empirical", "--estimator", "threshold",
                        "--grid-eta", "1.5")
        _, rows = parse_csv(out)
        assert [r["estimator"] for r in rows] == ["empirical", "threshold"]
        # threshold bound is vacuous at n=1e3, eta=1.5, and flagged as such
        assert rows[1]["threshold_upper_vacuous"] == "true"
        assert float(rows[1]["exact_risk"]) > 0

    def test_per_cell_error_keeps_sweep_alive(self, tmp_path):
        # delta = c H / ln n > 1 in the first cell: infeasible family
        code, out = run(tmp_path, "exact-risk", "--family", "entropy-ball",
                        "--grid-H", "5", "--grid-c", "0.9", "--grid-n", "3", "1000")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] != ""
        assert rows[0]["exact_risk"] == ""
        assert rows[1]["error"] == ""
        assert float(rows[1]["exact_risk"]) > 0

    @pytest.mark.parametrize("command", ["exact-risk", "mc"])
    def test_entropy_ball_at_n_one_is_a_cell_error(self, tmp_path, command):
        # delta = c H / ln n has no value at n = 1
        replicates = ["--replicates", "200"] if command == "mc" else []
        code, out = run(tmp_path, command, "--family", "entropy-ball", "--grid-H", "1",
                        "--grid-c", "0.5", "--grid-n", "1", "1000", *replicates)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] == "entropy-ball needs n >= 2, got n=1"
        assert rows[0]["exact_risk"] == ""
        assert rows[1]["error"] == ""
        assert float(rows[1]["exact_risk"]) > 0

    def test_threshold_at_n_one_names_its_level(self, tmp_path):
        # the threshold level e^2 (ln n)^(2 eta) / n has no value at n = 1
        code, out = run(tmp_path, "exact-risk", "--family", "uniform", "--grid-S", "2",
                        "--grid-n", "1", "--estimator", "threshold", "--format", "json",
                        name="out.json")
        assert code == 0
        [row] = json.loads(out.read_text(encoding="utf-8"))
        assert row["error"] == "threshold level needs n >= 2 (ln n must be positive), got n=1"
        assert row["exact_risk"] is None

    def test_infinite_eta_is_a_cell_error(self, tmp_path):
        # eta = inf is outside ThresholdConfig's domain, as eta <= 1 is
        code, out = run(tmp_path, "exact-risk", "--estimator", "threshold", "--family",
                        "uniform", "--grid-S", "3", "--grid-n", "2", "100", "--grid-eta", "inf")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["n"], r["exact_risk"], r["error"]) for r in rows] == [
            (n, "", "eta must exceed 1 and be finite, got eta=inf") for n in ("2", "100")]

    def test_eta_past_the_float_range_zeroes_the_rule(self, tmp_path):
        # (ln n)^(2 eta) overflows at eta = 1e200: the row's error was the
        # errno tuple "(34, 'Numerical result out of range')"; now the level
        # is inf and the all-zero rule has risk sum(p) = 1
        code, out = run(tmp_path, "exact-risk", "--family", "entropy-ball", "--grid-H", "1",
                        "--grid-c", "0.5", "--grid-n", "1000", "--estimator", "threshold",
                        "--grid-eta", "1e200")
        assert code == 0
        _, [row] = parse_csv(out)
        assert row["error"] == "" and float(row["exact_risk"]) == pytest.approx(1.0, rel=1e-12)
        assert row["mle_entropy_upper"] == "inf" and row["mle_entropy_upper_vacuous"] == "true"


class TestFamilyFiles:
    # utf-8-sig: the file starts with a byte-order mark
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_round_trip(self, tmp_path, encoding):
        path = tmp_path / "fam.txt"
        path.write_text("# tiny atoms then the heavy one\n"
                        "0.001 100   # one hundred cells\n"
                        "0.9 1\n", encoding=encoding)
        fam = load_family_file(str(path))
        assert fam.atoms == ((0.001, 100), (0.9, 1))
        code, out = run(tmp_path, "exact-risk", "--family", f"file:{path}",
                        "--grid-n", "50")
        _, rows = parse_csv(out)
        assert float(rows[0]["exact_risk"]) > 0


class TestMcCommand:
    def test_mc_row_includes_exact_and_ci_flag(self, tmp_path):
        code, out = run(tmp_path, "mc", "--family", "uniform", "--grid-S", "2",
                        "--grid-n", "4", "--replicates", "20000", "--seed", "5")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["exact_risk"] == "0.375"
        assert float(row["mc_ci_lo"]) <= 0.375 <= float(row["mc_ci_hi"])
        assert row["mc_within_ci"] == "true"
        assert row["seed"] == "5"

    def test_equal_losses_interval_covers_the_exact_risk(self, tmp_path):
        # the threshold rule zeroes everything at n = 10: every loss is 1,
        # the exact risk 1 - 2^-50, and three standard errors of 0 missed it
        code, out = run(tmp_path, "mc", "--estimator", "threshold", "--family", "uniform",
                        "--grid-S", "3", "--grid-n", "10", "--replicates", "100")
        assert code == 0
        _, [row] = parse_csv(out)
        assert row["mc_mean"] == "1" and row["mc_within_ci"] == "true"

    def test_rerun_byte_identical(self, tmp_path):
        args = ("mc", "--family", "uniform", "--grid-S", "2", "3", "--grid-n", "10",
                "--replicates", "500", "--seed", "123")
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_largest_seed_is_accepted(self, tmp_path):
        code, out = run(tmp_path, "mc", "--grid-S", "2", "--grid-n", "10", "--replicates",
                        "200", "--seed", str((1 << 64) - 1))
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["seed"] == str((1 << 64) - 1) and rows[0]["error"] == ""

    def test_raising_cell_keeps_its_error_and_the_sweep_goes_on(self, tmp_path, monkeypatch):
        from l1minimax import montecarlo
        real = montecarlo.mc_risk

        def mc_risk(family, estimator, n, cfg):
            if n == 100:
                raise ArithmeticError(f"no risk at n={n}")
            return real(family, estimator, n, cfg)

        monkeypatch.setattr(montecarlo, "mc_risk", mc_risk)
        code, out = run(tmp_path, "mc", "--family", "uniform", "--grid-S", "2", "--grid-n",
                        "10", "100", "1000", "--replicates", "200")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["error"] for r in rows] == ["", "no risk at n=100", ""]
        assert [r["mc_mean"] != "" for r in rows] == [True, False, True]


class TestReproduceCommand:
    def test_cor2_quick_grid_passes(self, tmp_path, capsys):
        code = main(["reproduce", "cor2", "--grid-n", "100", "1000", "10000"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured
        assert "FAIL" not in captured

    def test_cor34_quick_grid_passes(self, capsys):
        code = main(["reproduce", "cor3-4", "--grid-c", "1", "4",
                     "--grid-n", "1000"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_cor7_warns_once_per_n(self, tmp_path, capsys):
        # the threshold estimator depends on n alone, so its degenerate level
        # at n = 100 is one warning, not one per c of the default grid
        main(["reproduce", "cor7", "--grid-n", "100", "1000", "-v", "--out",
              str(tmp_path / "out.csv")])
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if "threshold level" in line]
        assert warned == ["WARNING l1minimax.estimators: threshold level 2.12681 >= 1 "
                          "at n=100, eta=1.1: estimator returns 0 everywhere"]

    def test_process_entry_writes_what_main_writes(self, tmp_path, capsys):
        # `python -m l1minimax` freezes the collector after main() returns;
        # main() itself must not, or long-lived callers would keep cyclic garbage
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        process = functools.partial(subprocess.run, capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        # a usage error exits 2 with main()'s one error line, as the contract
        # table's rows do in-process; `=` lets argparse read -inf as a value
        usage = ["reproduce", "cor3-4", "--grid-c=-inf"]
        assert main(usage) == 2
        proc = process([sys.executable, "-m", "l1minimax", *usage])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", capsys.readouterr().err)
        assert proc.stderr == "error: cor3-4: --grid-c values must satisfy 0 < c < inf\n"
        argv = ["reproduce", "cor2", "--grid-n", "100", "1000", "-v", "--out"]
        assert main(argv + [str(tmp_path / "main.csv")]) == 0
        assert gc.get_freeze_count() == 0
        proc = process([sys.executable, "-m", "l1minimax", *argv, str(tmp_path / "process.csv")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "PASS [cor2] S=2: final |sqrt(n) risk - constant| = 1.994e-04 <= 0.01",
            "PASS [cor2] S=2: gap decreases monotonically over n=[100, 1000]"]
        assert re.sub(r"\d+\.\d{3} ms", "T ms", proc.stderr).splitlines() == [
            f"DEBUG l1minimax.cli: reproduce cell {i} of 2 {{'S': 2, 'n': {n}, "
            f"'family': 'uniform', 'estimator': 'empirical'}}: T ms"
            for i, n in ((1, 100), (2, 1000))]
        assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    @pytest.mark.parametrize("target, error", [
        ("cor2", ZeroDivisionError), ("cor6", ValueError)])
    def test_only_a_value_error_is_a_usage_error(self, monkeypatch, capsys, target, error):
        from l1minimax import exact

        def broken(*args):
            raise error("inside the computation")

        monkeypatch.setattr(exact, "estimator_risk_exact", broken)
        if error is ValueError:  # a value outside a library domain: a bad invocation
            assert main(["reproduce", target, "--grid-n", "1000"]) == 2
            assert capsys.readouterr().err == f"error: {target}: inside the computation\n"
        else:  # any other failure inside a computation keeps its traceback
            with pytest.raises(error, match="inside the computation"):
                main(["reproduce", target, "--grid-n", "1000"])

    def test_cor2_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["reproduce", "cor2", "--grid-n", "100", "1000",
                     "--out", str(out)])
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols == COLUMNS
        assert len(rows) == 2


class TestFamilyGrids:
    """--grid-eta crosses only the cells that read it; the usage errors of a
    grid or an --estimator a command does not read are rows of
    tests/test_contracts.py."""

    def test_eta_crosses_only_the_cells_that_read_it(self, tmp_path):
        # on a uniform family only the threshold estimator reads eta
        code, out = run(tmp_path, "exact-risk", "--family", "uniform", "--grid-S", "2",
                        "--grid-n", "10", "--estimator", "empirical",
                        "--estimator", "threshold", "--grid-eta", "1.1", "1.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["estimator"], r["eta"]) for r in rows] == [
            ("empirical", ""), ("threshold", "1.1"), ("threshold", "1.5")]
        assert rows[0]["exact_risk"] == "0.24609375"


class TestVerbose:
    """-v routes the library's logging to stderr and changes nothing else."""

    # threshold level >= 1 at n = 100 (estimators warning); entropy-ball
    # rounding at every cell (families debug)
    COMMANDS = [
        ["exact-risk", "--family", "entropy-ball", "--grid-H", "1", "--grid-c", "0.5",
         "--grid-n", "100", "1000", "--estimator", "empirical", "--estimator", "threshold"],
        ["reproduce", "cor7", "--grid-c", "0.5", "--grid-n", "100", "1000"],
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", COMMANDS, ids=["exact-risk", "cor7"])
    def test_reports_and_stdout_unchanged(self, tmp_path, capsys, fmt, command):
        outputs = []
        for flags in ([], ["-v"]):
            out = tmp_path / f"out{len(outputs)}.{fmt}"
            code = main(command + flags + ["--format", fmt, "--out", str(out)])
            captured = capsys.readouterr()
            outputs.append((code, out.read_bytes(), captured.out, captured.err))
        (code, report, stdout, _), (v_code, v_report, v_stdout, v_err) = outputs
        assert (v_code, v_report, v_stdout) == (code, report, stdout)
        assert "DEBUG l1minimax.families: entropy ball H=1" in v_err
        assert "WARNING l1minimax.estimators: threshold level" in v_err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mc_reports_and_stdout_unchanged(self, tmp_path, capsys, fmt):
        # 2000 replicates: the two atoms make one Binomial call per cell, all
        # its draws at budget n, resolved from one table
        command = ["mc", "--family", "entropy-ball", "--grid-H", "1", "--grid-c", "0.5",
                   "--grid-n", "1000", "--replicates", "2000", "--seed", "7"]
        outputs = []
        for flags in ([], ["-v"]):
            out = tmp_path / f"out{len(outputs)}.{fmt}"
            code = main(command + flags + ["--format", fmt, "--out", str(out)])
            captured = capsys.readouterr()
            outputs.append((code, out.read_bytes(), captured.out, captured.err))
        (code, report, stdout, err), (v_code, v_report, v_stdout, v_err) = outputs
        assert code == 0 and (v_code, v_report, v_stdout) == (code, report, stdout)
        assert "DEBUG" not in err
        assert ("DEBUG l1minimax.montecarlo: mc_risk: Binomial draws from tables 2000, "
                "walked 0, sent to boost by a table or the walk 0, in calls too small "
                "to walk 0") in v_err

    def test_report_on_stdout_unchanged(self, capsys):
        command = self.COMMANDS[0] + ["--format", "json"]
        main(command)
        plain = capsys.readouterr()
        main(command + ["--verbose"])
        verbose = capsys.readouterr()
        assert verbose.out == plain.out
        assert "DEBUG" not in plain.err and "DEBUG" in verbose.err


    @pytest.mark.parametrize("argv", [
        ["bounds", "--grid-S", "2", "3", "--grid-n", "10", "100"],
        ["exact-risk", "--grid-S", "2", "3", "--grid-n", "10", "100"],
        ["mc", "--grid-S", "2", "3", "--grid-n", "10", "100", "--replicates", "200"],
        ["reproduce", "cor2", "--grid-n", "100", "1000"],
    ], ids=["bounds", "exact-risk", "mc", "cor2"])
    def test_time_lines_follow_the_sweep(self, tmp_path, monkeypatch, capsys, argv):
        # each row logs a record during its work; the time lines come after
        # every such record, one per report row, numbered in row order
        from l1minimax import cli
        real = cli._cell_bounds

        def cell_bounds(**grid):
            logging.getLogger("l1minimax.probe").debug("row work at %s", grid)
            return real(**grid)

        monkeypatch.setattr(cli, "_cell_bounds", cell_bounds)
        out = tmp_path / "out.csv"
        assert main(argv + ["-v", "--out", str(out)]) == 0
        _, rows = parse_csv(out)
        lines = capsys.readouterr().err.splitlines()
        work, timed = lines[:-len(rows)], lines[-len(rows):]
        assert len(work) >= len(rows)
        assert not any(line.startswith("DEBUG l1minimax.cli:") for line in work)
        for index, line in enumerate(timed, start=1):
            assert re.fullmatch(rf"DEBUG l1minimax\.cli: {argv[0]} cell {index} of "
                                rf"{len(rows)} \{{.*\}}: \d+\.\d{{3}} ms", line), line

    @pytest.mark.parametrize("target, grids, ms", [
        ("cor2", ["--grid-n", "100", "1000"], [1000] * 2),
        ("cor6", ["--grid-c", "0.5", "0.6", "0.7", "--grid-n", "100", "1000"], [3000] * 2),
        ("cor7", ["--grid-c", "0.5", "0.6", "0.7", "--grid-n", "100", "1000"], [6000] * 2),
    ])
    def test_reproduce_row_times_the_work_behind_it(self, monkeypatch, capsys, target,
                                                    grids, ms):
        # each exact risk takes one second of a fake clock and nothing else
        # does: a cor2 row is one risk, a cor6 row the max over c at its n,
        # a cor7 row both estimators' max over c at its n
        from l1minimax import cli, exact
        clock = [0.0]
        real = exact.estimator_risk_exact

        def estimator_risk_exact(*args):
            clock[0] += 1.0
            return real(*args)

        monkeypatch.setattr(exact, "estimator_risk_exact", estimator_risk_exact)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
        main(["reproduce", target, *grids, "-v"])
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("DEBUG l1minimax.cli:")]
        params = {"cor2": [{"S": 2, "n": n, "family": "uniform", "estimator": "empirical"}
                           for n in (100, 1000)],
                  "cor6": [{"H": 1.0, "n": n, "family": "entropy-ball",
                            "estimator": "empirical"} for n in (100, 1000)],
                  "cor7": [{"H": 1.0, "eta": 1.1, "n": n, "family": "entropy-ball",
                            "estimator": "threshold"} for n in (100, 1000)]}[target]
        assert lines == [f"DEBUG l1minimax.cli: reproduce cell {i} of 2 {p}: {t}.000 ms"
                         for i, (p, t) in enumerate(zip(params, ms), start=1)]


_MAIN_MODULES = textwrap.dedent("""
    import json, runpy, sys
    record, *argv = sys.argv[1:]
    sys.argv, code = ["l1minimax", *argv], None
    try:
        runpy.run_module("l1minimax", run_name="__main__", alter_sys=True)  # as -m does
    except SystemExit as done:
        code = done.code
    finally:
        with open(record, "w") as fh:
            json.dump([code, sorted(sys.modules)], fh)
""")


def _process_imports(tmp_path, *argv):
    """(exit code, every module loaded) of a `python -m l1minimax *argv` process."""
    src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
    record = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _MAIN_MODULES, str(record), *argv], cwd=tmp_path,
                   capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    code, modules = json.loads(record.read_text())
    return code, set(modules)


class TestImportFootprint:
    """`import l1minimax` loads none of its modules, and a CLI process only
    those its command calls: `bounds`, `-h` and usage errors load no numpy,
    nor do `exact-risk`, `reproduce cor2`, `cor3-4` and `cor9` on their
    documented grids, whose pmf windows are lists.  None of these loads
    `dataclasses` or the `inspect` it imports: every record is a
    namedtuple (numpy itself imports `inspect`).  Commands whose draws
    all come from Binomial tables load no scipy; it arrives with the first
    draw that needs boost, and no command loads a process pool."""

    GRID = ["--grid-H", "1", "--grid-c", "0.3", "0.5", "0.7",
            "--grid-n", "1000", "10000", "100000"]
    BOUNDS_GRID = ["bounds", *GRID, "--grid-eta", "1.1"]

    def test_package_loads_each_module_when_first_reached(self):
        script = textwrap.dedent("""
            import json, sys
            def loaded():
                print(json.dumps(sorted(m for m in sys.modules if m.count(".") < 2
                                        and m.split(".")[0] in ("l1minimax", "numpy"))))
            import l1minimax
            loaded()
            l1minimax.cli
            loaded()
            l1minimax.mc_risk
            loaded()
        """)
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        package, cli, api = map(json.loads, proc.stdout.splitlines())
        assert package == ["l1minimax"]
        assert cli == ["l1minimax", "l1minimax.bounds", "l1minimax.cli", "l1minimax.report"]
        assert {"numpy", "l1minimax.core", "l1minimax.estimators", "l1minimax.exact",
                "l1minimax.families", "l1minimax.montecarlo"} <= set(api)

    @pytest.mark.parametrize("argv, code", [
        (BOUNDS_GRID + ["--out", "bounds.csv"], 0),
        (["-h"], 0),
        (["bounds", "--grid-n", "10", "--no-such-flag"], 2),
    ], ids=["bounds", "help", "usage-error"])
    def test_no_numpy_without_numeric_work(self, tmp_path, argv, code):
        returncode, modules = _process_imports(tmp_path, *argv)
        assert returncode == code
        assert "l1minimax.cli" in modules
        assert not [m for m in modules if m.split(".")[0] == "numpy"]
        assert not {"dataclasses", "inspect"} & modules

    @pytest.mark.parametrize("argv", [
        ["reproduce", "cor2"],
        ["reproduce", "cor3-4"],
        ["reproduce", "cor9"],
        ["exact-risk", "--family", "entropy-ball", *GRID, "--estimator", "empirical",
         "--estimator", "threshold", "--grid-eta", "1.1"],
    ], ids=["reproduce-cor2", "reproduce-cor3-4", "reproduce-cor9", "exact-risk-grid"])
    def test_exact_commands_load_no_numpy(self, tmp_path, argv):
        # the exact_risk_grid.csv command and three trend targets, as the
        # scripts run them
        returncode, modules = _process_imports(tmp_path, *argv, "--out", "out.csv")
        assert returncode == 0
        assert "l1minimax.exact" in modules or "l1minimax.families" in modules
        assert not [m for m in modules if m.split(".")[0] == "numpy"]
        assert not {"dataclasses", "inspect"} & modules

    @pytest.mark.parametrize("argv, absent", [
        (["reproduce", "cor2", "--grid-n", "100", "1000"],
         {"l1minimax.montecarlo", "l1minimax.families"}),
        (["exact-risk", "--grid-S", "2", "--grid-n", "10", "--out", "exact.csv"],
         {"l1minimax.montecarlo"}),
    ], ids=["reproduce-cor2", "exact-risk"])
    def test_commands_load_only_the_modules_they_call(self, tmp_path, argv, absent):
        returncode, modules = _process_imports(tmp_path, *argv)
        assert returncode == 0
        assert "l1minimax.exact" in modules
        assert not absent & modules

    @pytest.mark.parametrize("target", ["cor2", "cor3-4", "cor6", "cor7", "cor9"])
    def test_reproduce_target_loads_its_modules_before_its_first_row(self, target):
        # cmd_reproduce loads them, and numpy for cor6 and cor7, before it
        # starts a row's clock
        script = textwrap.dedent("""
            import sys
            from l1minimax import cli
            target = sys.argv[1]
            cli._load(*cli._REPRODUCE_TARGETS[target][1])
            before = set(sys.modules)
            cli.main(["reproduce", target, "--grid-n", "1000"])
            print(sorted(m for m in set(sys.modules) - before
                         if m.split(".")[0] in ("l1minimax", "numpy")))
        """)
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, target], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    SCRIPT = textwrap.dedent("""
        import sys
        from l1minimax import cli

        out, family = sys.argv[1:]
        assert cli.main(["bounds", "--grid-H", "1", "--grid-S", "10", "--grid-n", "1000",
                         "--grid-c", "0.5", "--grid-eta", "1.1", "--out", out]) == 0
        assert cli.main(["reproduce", "cor3-4", "--out", out]) == 0
        assert cli.main(["mc", "--family", "entropy-ball", "--grid-H", "1",
                         "--grid-c", "0.5", "--grid-n", "1000", "--replicates", "200",
                         "--out", out]) == 0
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent")))
        assert cli.main(["mc", "--family", "file:" + family, "--grid-n", "1000",
                         "--replicates", "200", "--out", out]) == 0
        print("scipy.special" in sys.modules)
    """)

    def test_no_scipy_until_a_draw_needs_boost(self, tmp_path):
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        out, family = tmp_path / "mc.csv", tmp_path / "fam.txt"
        family.write_text("0.2 1\n0.3 1\n0.5 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(out), str(family)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the two entropy-ball atoms make one Binomial call, all its draws at
        # budget n, resolved from a table; the three atoms' second chain step
        # has a budget per replicate and goes to the walk
        assert proc.stdout.splitlines()[-2:] == ["[]", "True"]
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["error"] == ""
        assert rows[0]["mc_mean"] != "" and rows[0]["mc_within_ci"] == "true"

    def test_binomial_windows_and_tables_load_no_scipy(self):
        # `binomial` imports scipy only inside the routes that call boost
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from l1minimax import binomial

            binomial._binomial_window(10**4, 0.3, 1e-14)
            draws = binomial._binomial_inverse(np.full(64, 0.5), np.full(64, 1000), 0.3)
            print(draws.min() == draws.max() == 300)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["True", "[]"]


class TestColumnOrder:
    def test_parameters_lead_alphabetically(self):
        assert COLUMNS[:len(PARAM_COLUMNS)] == sorted(PARAM_COLUMNS)
        assert COLUMNS.index("exact_risk") == len(PARAM_COLUMNS)
        assert COLUMNS[-3:] == ["error", "seed", "runtime_ms"]

    def test_bound_value_fills_value_and_vacuous_columns(self):
        from l1minimax.bounds import BoundValue
        from l1minimax.report import record
        rec = record({"threshold_upper": BoundValue(math.inf, vacuous=True),
                      "mle_upper_simple": 0.5})
        assert list(rec) == COLUMNS
        assert rec["threshold_upper"] == math.inf and rec["threshold_upper_vacuous"] is True
        assert rec["mle_upper_simple"] == 0.5
        assert rec["simplex_lower"] is None and rec["simplex_lower_vacuous"] is None

    def test_key_that_is_not_a_column_raises(self):
        # a misspelt key would otherwise leave its column empty without a word
        from l1minimax.report import record, render_csv, render_json
        row = {"S": 2, "exact_risk": 0.5, "mc_men": 0.5}
        for render in (record, lambda r: render_csv([r]), lambda r: render_json([r])):
            with pytest.raises(KeyError, match="mc_men"):
                render(row)

    def test_error_text_with_commas_stays_in_one_cell(self, tmp_path):
        import io
        from l1minimax.report import render_csv
        text = render_csv([{"error": "sums to 0.8, too far from 1"}])
        cols, rows = (lambda r: (r[0], r[1:]))(list(csv.reader(io.StringIO(text))))
        assert cols == COLUMNS
        assert dict(zip(cols, rows[0]))["error"] == "sums to 0.8, too far from 1"
