import csv
import errno
import json
import math
import os
import pathlib
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

    def test_unknown_family(self, tmp_path, capsys):
        code = main(["exact-risk", "--family", "prawns", "--grid-n", "4",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "family" in capsys.readouterr().err


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("# tiny atoms then the heavy one\n"
                        "0.001 100   # one hundred cells\n"
                        "0.9 1\n", encoding="utf-8")
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

    def test_small_replicates_rejected_per_cell(self, tmp_path):
        code, out = run(tmp_path, "mc", "--family", "uniform", "--grid-S", "2",
                        "--grid-n", "4", "--replicates", "50")
        assert code == 0
        _, rows = parse_csv(out)
        assert "100" in rows[0]["error"]

    def test_rerun_byte_identical(self, tmp_path):
        args = ("mc", "--family", "uniform", "--grid-S", "2", "3", "--grid-n", "10",
                "--replicates", "500", "--seed", "123")
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first.read_bytes() == second.read_bytes()


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

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "cor99"])

    @pytest.mark.parametrize("argv, message", [
        (["cor2", "--grid-S", "1"], "--grid-S values must satisfy S >= 2"),
        (["cor6", "--grid-n", "1"], "H=1, c=0.3, n=1: entropy-ball needs n >= 2"),
        (["cor3-4", "--grid-c", "0"], "--grid-c values must satisfy c > 0"),
        (["cor7", "--grid-eta", "0.5"], "--grid-eta values must satisfy eta > 1"),
        (["cor9", "--grid-H", "-1"], "H=-1, c=0.3, n=1000: H must be positive"),
        # c and n each in range, but delta = cH / ln n = 1.45 is not
        (["cor6", "--grid-c", "10", "--grid-n", "1000"],
         "H=1, c=10, n=1000: delta must lie in (0, 1)"),
        # the simplex floor cor9 checks against is defined for c in (0, 1) only
        (["cor9", "--grid-c", "1.5", "--grid-n", "1000"],
         "--grid-c values must satisfy 0 < c < 1"),
        # cor7 compares both estimators at one threshold exponent
        (["cor7", "--grid-eta", "1.1", "1.5"], "--grid-eta takes one value"),
    ], ids=["cor2", "cor6", "cor3-4", "cor7", "cor9", "cor6-infeasible", "cor9-c",
            "cor7-eta"])
    def test_out_of_domain_grid_is_a_usage_error(self, argv, message):
        # exit code 1 is a FAIL verdict; a bad grid value is a bad invocation
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "l1minimax", "reproduce", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {argv[0]}: {message}\n"
        assert proc.stdout == ""

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
    """Each command accepts only the flags it reads."""

    @pytest.mark.parametrize("argv, unread", [
        (["bounds", "--grid-S", "10", "--grid-n", "100"], ["--replicates", "5"]),
        (["exact-risk", "--grid-S", "2", "--grid-n", "10"], ["--grid-zeta", "0.5"]),
        (["mc", "--grid-S", "2", "--grid-n", "10", "--replicates", "200"],
         ["--grid-zeta", "0.5"]),
        (["reproduce", "cor2", "--grid-n", "100"], ["--grid-H", "1"]),
        (["reproduce", "cor6", "--grid-n", "1000"], ["--timing"]),
    ], ids=["bounds-replicates", "exact-risk-zeta", "mc-zeta", "cor2-H", "cor6-timing"])
    def test_unread_flag_is_a_usage_error(self, capsys, argv, unread):
        with pytest.raises(SystemExit) as exc:
            main(argv + unread)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(unread) in captured.err


class TestFamilyGrids:
    """--family reads only its own grids, and --grid-eta only where a cell reads it."""

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
    ], ids=["entropy-ball-S", "uniform-H", "uniform-c", "file-S", "uniform-empirical-eta"])
    def test_unread_family_grid_is_a_usage_error(self, tmp_path, capsys, argv, message):
        path = tmp_path / "fam.txt"
        path.write_text("0.5 2\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["exact-risk", *(a.format(path=path) for a in argv), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: " + message.format(path=path) + "\n"
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
        # 2000 replicates: one walked Binomial call per cell; the few draws
        # a step from their guess go to boost
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
        assert ("DEBUG l1minimax.montecarlo: mc_risk: Binomial draws walked 1993, "
                "sent to boost by the walk 7, in calls too small to walk 0") in v_err

    def test_report_on_stdout_unchanged(self, capsys):
        command = self.COMMANDS[0] + ["--format", "json"]
        main(command)
        plain = capsys.readouterr()
        main(command + ["--verbose"])
        verbose = capsys.readouterr()
        assert verbose.out == plain.out
        assert "DEBUG" not in plain.err and "DEBUG" in verbose.err


class TestImportFootprint:
    """Importing the package and running commands without a Binomial draw
    load numpy only; scipy arrives with the first Monte-Carlo draw."""

    SCRIPT = textwrap.dedent("""
        import sys
        from l1minimax import cli

        out = sys.argv[1]
        assert cli.main(["bounds", "--grid-H", "1", "--grid-S", "10", "--grid-n", "1000",
                         "--grid-c", "0.5", "--grid-eta", "1.1", "--out", out]) == 0
        assert cli.main(["reproduce", "cor3-4", "--out", out]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        assert cli.main(["mc", "--family", "entropy-ball", "--grid-H", "1",
                         "--grid-c", "0.5", "--grid-n", "1000", "--replicates", "200",
                         "--out", out]) == 0
        print("scipy.special" in sys.modules)
    """)

    def test_no_scipy_until_a_binomial_draw(self, tmp_path):
        src = pathlib.Path(l1minimax.__file__).resolve().parents[1]
        out = tmp_path / "mc.csv"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(out)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the two entropy-ball atoms make one Binomial draw per replicate
        assert proc.stdout.splitlines()[-2:] == ["[]", "True"]
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["error"] == ""
        assert rows[0]["mc_mean"] != "" and rows[0]["mc_within_ci"] == "true"


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
