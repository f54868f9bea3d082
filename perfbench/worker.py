"""The timed process: runs one workload in a closed loop and writes raw
timings and outputs as JSON.  run.py starts it; checking happens there,
outside this process, so the checker's imports never count here.

    python worker.py --workload W --seed N --seconds S --trace 0|1 --out PATH --work DIR

One client: each cell starts when the previous one has finished.  An
untimed warm-up pass comes first in-process; CLI processes are warmed by
the fresh-process imports run.py times before.  Timed passes repeat until
`--seconds` have passed and at least MIN_PASSES (MIN_CLI_PASSES) passes
ran, so every cell has repeats spread over the run.  With --trace 1,
untraced and traced passes alternate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 4
MIN_CLI_PASSES = 2
# No new pass starts after this many seconds, so a run always ends in time.
MAX_LOOP_S = 90.0
CLI_TIMEOUT_S = 150.0


def _versions() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


# ---------------------------------------------------------------------------
# in-process workloads

def _import_library():
    import l1minimax
    where = Path(l1minimax.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise SystemExit(f"l1minimax imported from {where}, not from {SRC}")
    import l1minimax.exact
    import l1minimax.montecarlo
    return l1minimax


class Cell:
    """One mc_risk or estimator_risk_exact call on prebuilt inputs."""

    def __init__(self, lib, spec, dist, estimator):
        self.lib = lib
        self.spec = spec
        self.dist = dist
        self.estimator = estimator

    def with_estimator(self, estimator):
        return Cell(self.lib, self.spec, self.dist, estimator)

    def run(self):
        # Looked up at call time, so a traced pass reaches the wrappers.
        spec = self.spec
        if spec["kind"] == "mc":
            cfg = self.lib.McConfig(spec["replicates"], spec["master_seed"])
            est = self.lib.montecarlo.mc_risk(self.dist, self.estimator, spec["n"], cfg)
            return [est.mean, est.std_error]
        return self.lib.exact.estimator_risk_exact(self.dist, self.estimator, spec["n"])


def _build_cells(lib, workload, seed) -> list:
    vectors = {name: lib.ProbabilityVector(probs)
               for name, probs in workloads.vectors(workload, seed).items()}
    cells = []
    for spec in workloads.cells(workload, seed):
        dist = spec["dist"]
        if dist[0] == "dense":
            p = vectors[dist[1]]
        else:
            _, H, c, n = dist
            p = lib.entropy_ball_family(H, workloads.entropy_ball_delta(H, c, n)).family
            spec = {**spec, "atoms": [[v, m] for v, m in p.atoms]}
        n = spec["n"]
        if spec["estimator"] == "empirical":
            est = lib.empirical_estimator()
        else:
            est = lib.threshold_estimator(lib.ThresholdConfig(n, workloads.ETA))
        cells.append(Cell(lib, spec, p, est))
    return cells


def _run_pass(cells, probe: speed.KernelProbe, tracer=None) -> dict:
    ms, outputs = [], []
    for index, cell in enumerate(cells):
        probe.maybe_sample()
        if tracer is not None:
            tracer.cell = index
        t0 = time.perf_counter()
        try:
            out = cell.run()
        except Exception as exc:  # a failing cell is counted, not fatal
            out = {"error": repr(exc)}
        ms.append((time.perf_counter() - t0) * 1e3)
        outputs.append(out)
    return {"ms": ms, "outputs": outputs}


def _loop(run_one, traced: bool, seconds: float, min_passes: int) -> list:
    """Timed passes until both the time and the pass floor are met; with
    tracing, untraced and traced passes alternate in whole pairs."""
    passes = []
    started = time.perf_counter()
    while True:
        for tracing in ((False, True) if traced else (False,)):
            passes.append({"traced": tracing, **run_one(tracing)})
        elapsed = time.perf_counter() - started
        untraced = sum(not p["traced"] for p in passes)
        if (elapsed >= seconds and untraced >= min_passes) or elapsed >= MAX_LOOP_S:
            return passes


def run_in_process(workload, seed, seconds, traced) -> dict:
    lib = _import_library()
    cells = _build_cells(lib, workload, seed)
    probe = speed.KernelProbe()
    warmup = _run_pass(cells, probe)["outputs"]
    tracer = spans.Tracer() if traced else None
    traced_cells = None
    if traced:
        traced_cells = [c.with_estimator(tracer.wrap_estimator(c.estimator)) for c in cells]

    def run_one(tracing):
        if not tracing:
            return _run_pass(cells, probe)
        tracer.install()
        try:
            return _run_pass(traced_cells, probe, tracer)
        finally:
            tracer.uninstall()

    passes = _loop(run_one, traced, seconds, 1 if traced else MIN_PASSES)
    result = {"cells": [c.spec for c in cells], "warmup": warmup, "passes": passes,
              "slowdown": speed.slowdown(probe.samples_ms, speed.REFERENCE_KERNEL_MS),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        result.update(totals=tracer.totals(), absent=tracer.absent,
                      counter_errors=tracer.counter_errors)
    return result


# ---------------------------------------------------------------------------
# cli-sweeps: one fresh process per command

def _run_command(index, work: Path, traced: bool, spans_file: Path) -> dict:
    args, name, _, _ = workloads.CLI_COMMANDS[index]
    out = work / name
    out.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(HERE / "clilaunch.py"), str(spans_file), *args]
    else:
        cmd = [sys.executable, "-m", "l1minimax", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--out", str(out)], cwd=work, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    ms = (time.perf_counter() - t0) * 1e3
    lines = proc.stdout.splitlines()
    return {"command": index, "exit": proc.returncode, "ms": ms,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
            "pass": sum(line.startswith("PASS") for line in lines),
            "fail": sum(line.startswith("FAIL") for line in lines),
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def run_cli(seed, seconds, traced, work: Path) -> dict:
    order = workloads.cli_order(seed)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    env = dict(os.environ)
    reference_ms = []
    totals = []
    absent, counter_errors = set(), set()

    def run_one(tracing):
        cells = []
        for index in order:
            reference_ms.append(speed.reference_process_ms(env))
            spans_file = spans_dir / f"{len(totals)}.json"
            cells.append(_run_command(index, work, tracing, spans_file))
            if tracing and spans_file.exists():
                trace = json.loads(spans_file.read_text())
                totals.append(trace["totals"])
                absent.update(trace["absent"])
                counter_errors.update(trace["counter_errors"])
        return {"ms": [c["ms"] for c in cells], "outputs": cells}

    passes = _loop(run_one, traced, seconds, 1 if traced else MIN_CLI_PASSES)
    result = {"order": order, "passes": passes,
              "slowdown": speed.slowdown(reference_ms, speed.REFERENCE_PROCESS_MS),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if traced:
        result.update(totals=spans.merge_totals(totals), absent=sorted(absent),
                      counter_errors=sorted(counter_errors))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    if args.workload == "cli-sweeps":
        result = run_cli(args.seed, args.seconds, traced, args.work)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, traced)
    result["versions"] = _versions()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
