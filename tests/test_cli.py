import csv
import errno
import gc
import json
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

    def test_no_grids_is_an_error(self, tmp_path, capsys):
        code = main(["bounds", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "grid" in capsys.readouterr().err

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
        assert rows[0]["error"] == "entropy-ball needs n >= 2"
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

    def test_unknown_family(self, tmp_path, capsys):
        code = main(["exact-risk", "--family", "prawns", "--grid-n", "4",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "family" in capsys.readouterr().err


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

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 1\noops\n", encoding="utf-8")
        code = main(["exact-risk", "--family", f"file:{path}", "--grid-n", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_mass_validation(self, tmp_path, capsys):
        path = tmp_path / "off.txt"
        path.write_text("0.4 1\n0.4 1\n", encoding="utf-8")
        code = main(["exact-risk", "--family", f"file:{path}", "--grid-n", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "far from 1" in capsys.readouterr().err


    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("0.5 1\n0.5 two\n", ":2: invalid literal for int() with base 10: 'two'"),
        ("half 2\n", ":1: could not convert string to float: 'half'"),
        ("# comments only\n\n   # and a blank line\n", ": no atoms found"),
    ], ids=["missing", "bad-multiplicity", "bad-value", "comments-only"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "fam.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["exact-risk", "--family", f"file:{path}", "--grid-n", "10",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        sep = ": " if text is None else ""
        assert captured.err == f"error: {path}{sep}{message}\n"
        assert captured.out == "" and not out.exists()


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
        from l1minimax import cli
        real = cli.mc_risk

        def mc_risk(family, estimator, n, cfg):
            if n == 100:
                raise ArithmeticError(f"no risk at n={n}")
            return real(family, estimator, n, cfg)

        monkeypatch.setattr(cli, "mc_risk", mc_risk)
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

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "cor99"])

    @pytest.mark.parametrize("argv, message", [
        (["reproduce", "cor2", "--grid-S", "1"], "cor2: --grid-S values must satisfy S >= 2"),
        (["reproduce", "cor6", "--grid-n", "1"],
         "cor6: H=1, c=0.3, n=1: entropy-ball needs n >= 2"),
        (["reproduce", "cor3-4", "--grid-c", "0"], "cor3-4: --grid-c values must satisfy c > 0"),
        (["reproduce", "cor7", "--grid-eta", "0.5"],
         "cor7: --grid-eta values must satisfy eta > 1"),
        (["reproduce", "cor9", "--grid-H", "-1"], "cor9: H=-1, c=0.3, n=1000: H must be positive"),
        # c and n each in range, but delta = cH / ln n = 1.45 is not
        (["reproduce", "cor6", "--grid-c", "10", "--grid-n", "1000"],
         "cor6: H=1, c=10, n=1000: delta must lie in (0, 1)"),
        # the simplex floor cor9 checks against is defined for c in (0, 1) only
        (["reproduce", "cor9", "--grid-c", "1.5", "--grid-n", "1000"],
         "cor9: --grid-c values must satisfy 0 < c < 1"),
        # cor7 compares both estimators at one threshold exponent
        (["reproduce", "cor7", "--grid-eta", "1.1", "1.5"], "cor7: --grid-eta takes one value"),
        # the simplex floor is defined for n >= e^H only
        (["reproduce", "cor9", "--grid-n", "2", "1000"],
         "cor9: H=1, n=2: requires n >= e^H = 2.71828, got n=2"),
        (["reproduce", "cor9", "--grid-H", "3", "--grid-n", "10"],
         "cor9: H=3, n=10: requires n >= e^H = 20.0855, got n=10"),
        # master seeds are 64-bit unsigned: -3 would run as 2^64 - 3, 2^64 as 0
        (["mc", "--grid-S", "2", "--grid-n", "10", "20", "--replicates", "200",
          "--seed", "-3"], "--seed must be in [0, 2^64), got -3"),
        (["mc", "--grid-S", "2", "--grid-n", "10", "20", "--replicates", "200",
          "--seed", str(1 << 64)], f"--seed must be in [0, 2^64), got {1 << 64}"),
        (["reproduce", "cor2", "--grid-n", "100", "--seed", "-1"],
         "--seed must be in [0, 2^64), got -1"),
        # too few replicates for every cell, not one error row per cell
        (["mc", "--grid-S", "2", "--grid-n", "4", "--replicates", "50"],
         "replicates must be an integer of at least 100 for CI reporting, got 50"),
    ], ids=["cor2", "cor6", "cor3-4", "cor7", "cor9", "cor6-infeasible", "cor9-c",
            "cor7-eta", "cor9-floor", "cor9-floor-H", "mc-seed-negative", "mc-seed-2^64",
            "cor2-seed-negative", "mc-replicates"])
    def test_out_of_domain_grid_is_a_usage_error(self, argv, message):
        # exit code 1 is a FAIL verdict; a bad grid value is a bad invocation
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "l1minimax", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_process_entry_writes_what_main_writes(self, tmp_path):
        # `python -m l1minimax` freezes the collector after main() returns;
        # main() itself must not, or long-lived callers would keep cyclic garbage
        argv = ["reproduce", "cor2", "--grid-n", "100", "1000", "-v", "--out"]
        assert main(argv + [str(tmp_path / "main.csv")]) == 0
        assert gc.get_freeze_count() == 0
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "l1minimax", *argv, str(tmp_path / "process.csv")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
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
    def test_internal_error_is_not_a_usage_error(self, monkeypatch, target, error):
        # only grid values outside their domain are bad invocations; a
        # failure inside a computation keeps its traceback
        from l1minimax import cli

        def broken(*args):
            raise error("inside the computation")

        monkeypatch.setattr(cli, "estimator_risk_exact", broken)
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


class TestUnreadFlags:
    """Each command accepts only the flags it reads, and each grid once."""

    @pytest.mark.parametrize("argv, unread", [
        (["bounds", "--grid-S", "10", "--grid-n", "100"], ["--replicates", "5"]),
        (["exact-risk", "--grid-S", "2", "--grid-n", "10"], ["--grid-zeta", "0.5"]),
        (["mc", "--grid-S", "2", "--grid-n", "10", "--replicates", "200"],
         ["--grid-zeta", "0.5"]),
        (["reproduce", "cor2", "--grid-n", "100"], ["--grid-H", "1"]),
        (["reproduce", "cor6", "--grid-n", "1000"], ["--timing"]),
        (["bounds", "--grid-S", "10", "--grid-n", "100"], ["--timing"]),
        (["exact-risk", "--grid-S", "2", "--grid-n", "10"], ["--timing"]),
        (["mc", "--grid-S", "2", "--grid-n", "10", "--replicates", "200"], ["--timing"]),
    ], ids=["bounds-replicates", "exact-risk-zeta", "mc-zeta", "cor2-H", "cor6-timing",
            "bounds-timing", "exact-risk-timing", "mc-timing"])
    def test_unread_flag_is_a_usage_error(self, capsys, argv, unread):
        with pytest.raises(SystemExit) as exc:
            main(argv + unread)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(unread) in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["bounds", "--grid-S", "2", "--grid-n", "10", "--grid-S", "3"], "--grid-S"),
        (["exact-risk", "--grid-S", "2", "--grid-n", "10", "--grid-n", "20"], "--grid-n"),
        (["mc", "--grid-S", "2", "--grid-n", "10", "--replicates", "200", "--grid-n", "20"],
         "--grid-n"),
        (["reproduce", "cor2", "--grid-n", "100", "--grid-n", "1000"], "--grid-n"),
    ], ids=["bounds", "exact-risk", "mc", "cor2"])
    def test_repeated_grid_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        # argparse alone would keep the last list and drop the earlier values
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.endswith(f"error: argument {flag}: given more than once\n")


class TestFamilyGrids:
    """--family reads only its own grids, --grid-eta only where a cell reads
    it, and each --estimator is given once."""

    @pytest.mark.parametrize("argv, message", [
        (["--family", "entropy-ball", "--grid-S", "5", "7", "--grid-H", "1",
          "--grid-c", "0.5", "--grid-n", "1000"],
         "--family entropy-ball does not read --grid-S"),
        (["--family", "uniform", "--grid-S", "2", "--grid-H", "1", "--grid-n", "10"],
         "--family uniform does not read --grid-H"),
        (["--grid-S", "2", "--grid-c", "0.5", "--grid-n", "10"],
         "--family uniform does not read --grid-c"),
        (["--family", "file:{path}", "--grid-S", "2", "--grid-n", "10"],
         "--family file:{path} does not read --grid-S"),
        (["--family", "uniform", "--grid-S", "2", "--grid-n", "10",
          "--estimator", "empirical", "--grid-eta", "1.1", "1.5"],
         "--family uniform does not read --grid-eta without --estimator threshold"),
        (["--family", "entropy-ball", "--grid-H", "1", "--grid-n", "1000"],
         "--family entropy-ball requires --grid-c"),
    ], ids=["entropy-ball-S", "uniform-H", "uniform-c", "file-S", "uniform-empirical-eta",
            "entropy-ball-no-c"])
    def test_unread_family_grid_is_a_usage_error(self, tmp_path, capsys, argv, message):
        path = tmp_path / "fam.txt"
        path.write_text("0.5 2\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["exact-risk", *(a.format(path=path) for a in argv), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: " + message.format(path=path) + "\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["exact-risk", "mc"])
    def test_repeated_estimator_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = main([command, "--grid-S", "2", "--grid-n", "10", "--estimator", "empirical",
                     "--estimator", "threshold", "--estimator", "empirical",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --estimator empirical given more than once\n"
        assert captured.out == "" and not out.exists()

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


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--grid-S", "2", "--grid-n", "10"],
        ["reproduce", "cor2", "--grid-n", "100", "1000"],
    ], ids=["bounds", "cor2"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.csv"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"
        assert captured.out == ""


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
        from l1minimax import cli
        clock = [0.0]
        real = cli.estimator_risk_exact

        def estimator_risk_exact(*args):
            clock[0] += 1.0
            return real(*args)

        monkeypatch.setattr(cli, "estimator_risk_exact", estimator_risk_exact)
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


class TestImportFootprint:
    """Importing the package and running commands whose draws all come from
    Binomial tables load numpy only; scipy arrives with the first draw that
    needs boost, and no command loads a process pool."""

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
        from l1minimax.report import ReportRow
        rec = ReportRow(bounds={"threshold_upper": BoundValue(math.inf, vacuous=True),
                                "mle_upper_simple": 0.5}).record()
        assert rec["threshold_upper"] == math.inf and rec["threshold_upper_vacuous"] is True
        assert rec["mle_upper_simple"] == 0.5
        assert rec["simplex_lower"] is None and rec["simplex_lower_vacuous"] is None

    def test_error_text_with_commas_stays_in_one_cell(self, tmp_path):
        import io
        from l1minimax.report import ReportRow, render_csv
        text = render_csv([ReportRow(error="sums to 0.8, too far from 1")])
        cols, rows = (lambda r: (r[0], r[1:]))(list(csv.reader(io.StringIO(text))))
        assert cols == COLUMNS
        assert dict(zip(cols, rows[0]))["error"] == "sums to 0.8, too far from 1"
