"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench/tests

The last test runs every workload once with one-second runs (a few
minutes).
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _committed(name: str) -> bytes:
    return (ROOT / "results" / name).read_bytes()


def _cli_record(index: int, data: bytes, **changes) -> dict:
    record = {"command": index, "exit": 0, "sha256": hashlib.sha256(data).hexdigest(),
              "pass": workloads.CLI_COMMANDS[index][3], "fail": 0, "stderr": ""}
    return {**record, **changes}


@pytest.mark.parametrize("index", range(len(workloads.CLI_COMMANDS)))
def test_pinned_hashes_are_the_committed_results(index):
    name = workloads.CLI_COMMANDS[index][1]
    assert checks.check_cli(_cli_record(index, _committed(name)))


def test_flipped_byte_in_cli_output_counts_as_failure():
    good = _committed("mc_risk_grid.csv")
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    result = {"passes": [{"ms": [1.0, 1.0], "outputs": [_cli_record(2, good),
                                                        _cli_record(2, bytes(flipped))]}]}
    assert checks.count_failures("cli-sweeps", 0, result)[:2] == (2, 1)


@pytest.mark.parametrize("changes", [{"exit": 1}, {"pass": 0}, {"fail": 1}])
def test_cli_verdict_lines_and_exit_code_are_checked(changes):
    index = 6  # reproduce cor7
    record = _cli_record(index, _committed(workloads.CLI_COMMANDS[index][1]), **changes)
    assert not checks.check_cli(record)


def _exact_result(warmup, outputs):
    spec = {"kind": "exact", "dist": ["entropy-ball"], "n": 4, "estimator": "empirical",
            "atoms": [[0.5, 2]]}
    return {"cells": [spec], "warmup": [warmup], "passes": [{"ms": [1.0], "outputs": [outputs]}]}


def test_exact_oracle_accepts_the_known_risk():
    # README: the empirical risk at uniform(2) with n = 4 is 0.375.
    assert checks.count_failures("exact-dense", 0, _exact_result(0.375, 0.375))[:2] == (1, 0)


def test_perturbed_exact_value_counts_as_failure():
    perturbed = 0.375 * (1 + 1e-6)
    assert checks.count_failures("exact-dense", 0, _exact_result(perturbed, perturbed))[:2] == (1, 1)


def test_output_that_changes_between_passes_counts_as_failure():
    assert checks.count_failures("exact-dense", 0, _exact_result(0.375, 0.3750000000000001))[:2] \
        == (1, 1)


@pytest.mark.parametrize("n, p", [(1_000, 0.3), (10**6, 2e-5), (25, 0.5)])
def test_oracle_matches_de_moivre_mean_absolute_deviation(n, p):
    # E|X - np| = 2 nu C(n, nu) p^nu q^(n - nu + 1), nu = floor(np) + 1.
    q = 1.0 - p
    nu = math.floor(n * p) + 1
    log_mad = (math.log(2 * nu) + math.lgamma(n + 1) - math.lgamma(nu + 1)
               - math.lgamma(n - nu + 1) + nu * math.log(p) + (n - nu + 1) * math.log(q))
    # l1 risk of the empirical estimator on (p, 1 - p) is 2 E|X/n - p|.
    expected = 2.0 * math.exp(log_mad) / n
    risk = checks.oracle_risks([(p, 1), (q, 1)], n, ["empirical"])["empirical"]
    assert risk == pytest.approx(expected, rel=1e-10)


def test_mc_band_uses_the_standard_error_pooled_over_seeds():
    # Uniform(2), n = 4: exact risk 0.375.  The second seed's own standard
    # error is too small for its deviation; the pooled one is not.
    spec = {"kind": "mc", "dist": ["entropy-ball"], "n": 4, "estimator": "empirical",
            "replicates": 100, "atoms": [[0.5, 2]]}
    warmup = [[0.375 + 0.02, 0.01], [0.375 - 0.02, 0.001]]
    result = {"cells": [spec, spec], "warmup": warmup,
              "passes": [{"ms": [1.0, 1.0], "outputs": warmup}]}
    assert checks.count_failures("mc", 0, result)[:2] == (2, 0)
    assert not checks.check_mc([0.375 + 0.08, 0.01], 0.375, 0.01)
    assert not checks.check_mc({"error": "boom"}, 0.375, 0.01)


def test_tracer_spans_self_time_and_restore():
    import l1minimax
    from l1minimax import exact

    original = exact.binomial_expectation
    tracer = spans.Tracer()
    tracer.install()
    try:
        risk = exact.estimator_risk_exact(l1minimax.ProbabilityVector([0.5, 0.5]),
                                          l1minimax.empirical_estimator(), 4)
    finally:
        tracer.uninstall()
    assert risk == 0.375
    assert exact.binomial_expectation is original
    totals = tracer.totals()
    top = totals["exact.estimator_risk_exact"]
    assert top["calls"] == 1
    assert totals["exact.binomial_expectation"]["calls"] == 1
    assert totals["exact.window_pmf"]["points"] == 5
    assert totals["estimators"]["elems"] == 5
    self_sum = sum(fields["self_s"] for fields in totals.values())
    assert 0.0 < self_sum <= top["total_s"]


def test_missing_hook_is_reported_absent(monkeypatch):
    import l1minimax  # noqa: F401

    hook = ("l1minimax.exact", "_no_such_helper", "exact.no_such_helper", None)
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (hook,))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["l1minimax.exact._no_such_helper"]


def test_inputs_depend_only_on_the_seed():
    assert workloads.cells("mc", 5) == workloads.cells("mc", 5)
    assert workloads.cells("mc", 5) != workloads.cells("mc", 6)
    assert sorted(workloads.cli_order(5)) == list(range(len(workloads.CLI_COMMANDS)))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_command_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--seed", "2", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    printed: dict = {}
    for line in proc.stdout.splitlines():
        workload, name, value, unit = line.split()
        float(value)
        printed.setdefault(workload, {})[name] = unit
    assert sorted(printed) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(printed)
    for workload, metrics in printed.items():
        assert {name: unit for name, unit in metrics.items()
                if name not in ("attempted", "failed")} == declared, workload
