"""Benchmark of l1minimax, run from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A single workload prints information lines, then one JSON line with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
`--workload all` runs every workload both ways and prints one
`workload metric value unit` line per metric.

The library is always imported from this checkout's `src`, never from an
installed copy.  Timed work runs in a child process (worker.py); outputs
are checked afterwards in this process, so the checker's imports never
count towards set-up time or memory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_SAMPLES = 3
# Fresh `python -X importtime` runs per traced run; each field is a median.
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

_IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import l1minimax; "
                   "print(time.perf_counter() - t); print(l1minimax.__file__)")
_MODULES_SNIPPET = ("import sys; before = set(sys.modules); import l1minimax; "
                    "print(len(set(sys.modules) - before))")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """Checkout `src` first on the path, BLAS and OpenMP single-threaded,
    and one string-hash seed, so that every process lays out its dicts the
    same way."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _python(args, **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, **kwargs)
    if proc.returncode != 0:
        raise BenchmarkError(f"{args[0]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def time_setup() -> tuple:
    """Seconds of `import l1minimax` in fresh interpreters, and the
    slowdown from a reference process timed before each."""
    samples, reference_ms = [], []
    for _ in range(SETUP_SAMPLES):
        reference_ms.append(speed.reference_process_ms(child_env()))
        seconds, where = _python(["-c", _IMPORT_SNIPPET]).stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"l1minimax imported from {where}, not from {SRC}")
        samples.append(float(seconds))
    return samples, speed.slowdown(reference_ms, speed.REFERENCE_PROCESS_MS)


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of the interesting modules, and l1minimax's own
    self time, from `python -X importtime` output."""
    cumulative, own = {}, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        cumulative[name] = cumulative_us / 1e6
        if name == "l1minimax" or name.startswith("l1minimax."):
            own += self_us / 1e6
    return {"import.total_s": cumulative.get("l1minimax", 0.0),
            "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
            "import.numpy_s": cumulative.get("numpy", 0.0),
            "import.self_s": own}


def import_breakdown() -> dict:
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _python(["-X", "importtime", "-c", _MODULES_SNIPPET])
        runs.append({**parse_importtime(proc.stderr),
                     "import.modules": float(proc.stdout.split()[0])})
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").is_dir():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {**versions, "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed,
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def pass_s(p: dict) -> float:
    return sum(p["ms"]) / 1e3


def end_to_end(result: dict, setup: tuple) -> tuple:
    """Medians and pooled percentiles, each divided by the slowdown of its
    phase (see speed.py); the raw values go to the information line."""
    passes = result["passes"]
    ms = [m for p in passes for m in p["ms"]]
    setup_samples, setup_slowdown = setup
    raw = {"wall_s": statistics.median(pass_s(p) for p in passes),
           "cell_p50_ms": statistics.median(ms),
           "cell_p90_ms": percentile(ms, 90)}
    metrics = {name: value / result["slowdown"] for name, value in raw.items()}
    raw["setup_s"] = statistics.median(setup_samples)
    metrics.update(setup_s=raw["setup_s"] / setup_slowdown, peak_rss_mb=result["peak_rss_mb"])
    info = {"passes": len(passes), "cells_timed": len(ms),
            "cells_above_p90": sum(m > raw["cell_p90_ms"] for m in ms),
            "slowdown": {"run": result["slowdown"], "setup": setup_slowdown},
            "raw": raw, "setup_samples_s": setup_samples}
    return metrics, info


def per_layer(result: dict, imports: dict) -> tuple:
    import spans

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    metrics = spans.layer_metrics(result["totals"], len(traced))
    plain_wall = statistics.median(pass_s(p) for p in untraced)
    traced_wall = statistics.median(pass_s(p) for p in traced)
    process_s = sum(m for p in traced for m in p["ms"]) / 1e3 / len(traced)
    cli_runs = metrics["cli.calls"] > 0
    metrics.update({
        "cli.process_s": process_s if cli_runs else 0.0,
        "cli.startup_s": process_s - metrics["cli.main_s"] if cli_runs else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    })
    metrics.update(imports)
    info = {"traced_passes": len(traced), "untraced_wall_s": plain_wall,
            "absent_hooks": result["absent"], "counter_errors": result["counter_errors"]}
    return metrics, info


def declared_metrics(traced: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks this mode to print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """(result line, information lines) of one benchmark run."""
    if not (SRC / "l1minimax" / "__init__.py").is_file():
        raise BenchmarkError(f"no l1minimax package under {SRC}")
    declared = declared_metrics(traced)
    # Fresh-process imports first: they also warm bytecode and file caches
    # for the worker and its CLI processes.
    imports = import_breakdown() if traced else time_setup()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        out = work / "result.json"
        _python([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced)),
                 "--out", str(out), "--work", str(work)])
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if traced:
        metrics, info = per_layer(result, imports)
    else:
        metrics, info = end_to_end(result, imports)
    import checks

    attempted, failed, problems = checks.count_failures(workload, seed, result)
    info.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                problems=problems[:20])
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchmarkError(f"metrics not computed: {missing}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items()}}
    info_lines = [{"environment": environment(seed, result["versions"])},
                  {"workload": workload, "trace": int(traced), **info}]
    return line, info_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            line, info_lines = run_once(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
            for info in info_lines:
                print(json.dumps(info))
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        correct = True
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                line, info_lines = run_once(workload, args.seed, args.seconds, traced)
                correct &= line["correct"]
                print(f"{workload} attempted {line['attempted']} count")
                print(f"{workload} failed {line['failed']} count")
                for name, metric in line["metrics"].items():
                    print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        return 0 if correct else 1
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
