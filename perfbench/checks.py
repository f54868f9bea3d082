"""Output checks, run outside the timed process.

Exact risks are compared with an independent oracle: a scipy `binom.pmf`
sum over a window whose truncated tail mass is certified with
`binom.cdf`/`binom.sf`.  It never calls the library's own expectation code.
Monte-Carlo means must repeat bit for bit under the same seed and lie
within a wide z-band of the oracle's exact risk.  The band's standard
error pools the variance estimates of every master seed of the same spec:
one cell's own estimate from 100 replicates can come out at half its true
value.  CLI outputs must match
the committed results byte for byte (by sha256) with the expected PASS
lines and no FAIL.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

import workloads

# Exact cells: relative tolerance against the oracle, fixed in advance.
RTOL = 1e-9
# MC cells: |mean - exact| <= Z_BAND pooled standard errors (plus RTOL, for
# cells whose loss is constant).  Over 1200 seeded cells of R = 100 the
# largest |z| was 4.2; a sampler bias shows as far more.
Z_BAND = 7.0
# Certified bound on the truncated mass, summed over atoms with multiplicity.
ORACLE_TAIL_TOL = 1e-13
# Points per vectorized pmf evaluation, to bound the checker's memory.
_CHUNK_POINTS = 1_000_000


def estimate(name: str, ks: np.ndarray, n: int) -> np.ndarray:
    """The two estimators, written out from their definitions."""
    freq = ks / n
    if name == "empirical":
        return freq
    return np.where(freq > workloads.threshold_cut(n, workloads.ETA), freq, 0.0)


def oracle_risks(atoms, n: int, estimators) -> dict:
    """Exact l1 risk per estimator: sum over atoms of mult * E|f(K) - v|,
    K ~ Binomial(n, v), evaluated on certified windows."""
    values = np.array([float(v) for v, _ in atoms])
    mults = [float(m) for _, m in atoms]
    sigma = np.sqrt(n * values * (1.0 - values))
    mode = np.minimum(np.floor((n + 1) * values), n)
    width = np.ceil(10.0 * sigma + 40.0)
    lo = np.maximum(mode - width, 0.0)
    hi = np.minimum(mode + width, n)
    tail = binom.cdf(lo - 1, n, values) + binom.sf(hi, n, values)
    truncated = math.fsum(m * t for m, t in zip(mults, tail))
    if not truncated <= ORACLE_TAIL_TOL:
        raise ArithmeticError(f"oracle window leaves mass {truncated:g} uncertified")
    counts = (hi - lo + 1).astype(np.int64)
    sums = {name: [] for name in estimators}
    first = 0
    while first < values.size:
        last = first + 1
        points = counts[first]
        while last < values.size and points + counts[last] <= _CHUNK_POINTS:
            points += counts[last]
            last += 1
        block = slice(first, last)
        starts = np.concatenate(([0], np.cumsum(counts[block])[:-1]))
        p_rep = np.repeat(values[block], counts[block])
        ks = np.repeat(lo[block] - starts, counts[block]) + np.arange(points)
        pmf = binom.pmf(ks, n, p_rep)
        for name in estimators:
            per_atom = np.add.reduceat(np.abs(estimate(name, ks, n) - p_rep) * pmf, starts)
            sums[name].extend((per_atom * mults[first:last]).tolist())
        first = last
    return {name: math.fsum(terms) for name, terms in sums.items()}


def cell_atoms(workload: str, seed: int, spec: dict) -> list:
    """(value, multiplicity) atoms of a cell's distribution."""
    if "atoms" in spec:
        return spec["atoms"]
    probs = workloads.vectors(workload, seed)[spec["dist"][1]]
    values, counts = np.unique(probs, return_counts=True)
    return list(zip(values.tolist(), counts.tolist()))


def check_exact(value, exact: float) -> bool:
    return isinstance(value, float) and abs(value - exact) <= RTOL * abs(exact)


def check_mc(value, exact: float, std_error: float) -> bool:
    return _is_estimate(value) and abs(value[0] - exact) <= Z_BAND * std_error + RTOL * abs(exact)


def _is_estimate(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def check_cli(record: dict) -> bool:
    _, _, sha256, passes = workloads.CLI_COMMANDS[record["command"]]
    return (record["exit"] == 0 and record["sha256"] == sha256
            and record["pass"] == passes and record["fail"] == 0)


def _pooled_std_errors(specs, outputs) -> list:
    """Per cell: root-mean-square standard error over the cells that
    differ from it only in master seed."""
    groups: dict = {}
    for index, spec in enumerate(specs):
        if spec["kind"] == "mc" and _is_estimate(outputs[index]):
            key = (tuple(spec["dist"]), spec["n"], spec["estimator"], spec["replicates"])
            groups.setdefault(key, []).append(outputs[index][1] ** 2)
    pooled = []
    for spec in specs:
        key = (tuple(spec["dist"]), spec["n"], spec["estimator"], spec.get("replicates"))
        variances = groups.get(key)
        pooled.append(math.sqrt(sum(variances) / len(variances)) if variances else 0.0)
    return pooled


def _oracle_exact(workload, seed, specs) -> list:
    """Oracle risk per cell, computing each (distribution, n) window once."""
    groups: dict = {}
    for index, spec in enumerate(specs):
        key = (tuple(spec["dist"]), spec["n"])
        groups.setdefault(key, []).append(index)
    exact = [0.0] * len(specs)
    for indices in groups.values():
        spec = specs[indices[0]]
        names = sorted({specs[i]["estimator"] for i in indices})
        risks = oracle_risks(cell_atoms(workload, seed, spec), spec["n"], names)
        for i in indices:
            exact[i] = risks[specs[i]["estimator"]]
    return exact


def count_failures(workload: str, seed: int, result: dict) -> tuple:
    """(attempted, failed, problems) over the timed cells of a worker result.

    A cell execution fails when it raised, when its output differs from the
    warm-up pass (same inputs, same seed), or when its cell fails the check.
    """
    passes = result["passes"]
    attempted = sum(len(p["ms"]) for p in passes)
    problems = []
    if workload == "cli-sweeps":
        failed = 0
        for p in passes:
            for record in p["outputs"]:
                if not check_cli(record):
                    failed += 1
                    problems.append(f"command {record['command']}: exit {record['exit']}, "
                                    f"sha256 {record['sha256']}, PASS {record['pass']}, "
                                    f"FAIL {record['fail']} {record['stderr']}".strip())
        return attempted, failed, problems
    specs, warmup = result["cells"], result["warmup"]
    exact = _oracle_exact(workload, seed, specs)
    pooled = _pooled_std_errors(specs, warmup)
    good = []
    for index, (spec, value) in enumerate(zip(specs, warmup)):
        if spec["kind"] == "mc":
            ok = check_mc(value, exact[index], pooled[index])
        else:
            ok = check_exact(value, exact[index])
        if not ok:
            problems.append(f"cell {index} {spec['kind']} {spec['dist']} n={spec['n']} "
                            f"{spec['estimator']}: {value!r} vs oracle {exact[index]!r}")
        good.append(ok)
    failed = 0
    for p in passes:
        for index, value in enumerate(p["outputs"]):
            if not good[index] or value != warmup[index]:
                failed += 1
                if good[index]:
                    problems.append(f"cell {index}: {value!r} differs from {warmup[index]!r}")
    return attempted, failed, problems
