"""Workload inputs, generated from the workload seed.

Everything here is plain data (numbers, numpy arrays, argument lists) so
that the timed worker and the out-of-process checker rebuild identical
inputs from the same seed without sharing state.  Nothing here imports
l1minimax.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli-sweeps", "mc", "exact-dense")

ETA = 1.1
# Each MC spec runs under this many master seeds, so that each half of an
# `mc` pass has about 100 distinct cells while a whole pass takes about
# 2 s on the calibration machine.
DENSE_SEEDS, DENSE_REPLICATES = 4, 250
COMPRESSED_SEEDS, COMPRESSED_REPLICATES = 6, 100

_GRID = ["--grid-H", "1", "--grid-c", "0.3", "0.5", "0.7",
         "--grid-n", "1000", "10000", "100000"]

# The eight documented commands of scripts/run_risk_grid.py and
# scripts/run_trend_sweeps.py: (CLI arguments, output file, sha256 of the
# committed results/<file>, PASS lines the command must print).
CLI_COMMANDS = (
    (["bounds", *_GRID, "--grid-eta", "1.1"], "bounds_grid.csv",
     "a774e0e7c618cb74391063c0ff511838e436742fa14f55b87bb76f3d81e1405a", 0),
    (["exact-risk", "--family", "entropy-ball", *_GRID, "--estimator", "empirical",
      "--estimator", "threshold", "--grid-eta", "1.1"], "exact_risk_grid.csv",
     "a5b2264986465cca43edbc596ce2cb0ec9f5937a75bb3e83d83b8661cad08100", 0),
    (["mc", "--family", "entropy-ball", *_GRID, "--replicates", "2000", "--seed", "7"],
     "mc_risk_grid.csv",
     "27488bda89c6bdfb52deb82be37837b8b8aa699ea3d513cd3f6e54b3a7cde57d", 0),
    (["reproduce", "cor2"], "trend_cor2.csv",
     "d2303df085051eb81aaa5a90529dba685c7512a8fec32eeba22aa1d6931de342", 2),
    (["reproduce", "cor3-4"], "trend_cor3-4.csv",
     "ed615ca81aedaf76c56bfe87999fb628c5701807ef4415bcf4aadc6705ab3bb2", 2),
    (["reproduce", "cor6"], "trend_cor6.csv",
     "c602212747c8220d1742656c09caac4948b7be9574693d1a3a4ce0c992fc4f6f", 2),
    (["reproduce", "cor7"], "trend_cor7.csv",
     "b46e71ab0934ebe9fc2ab96624a3e08a6e71cd9d9200fc91aae2bd28ec2670e6", 1),
    (["reproduce", "cor9"], "trend_cor9.csv",
     "a68dc79f69d47fe43e3450001bc28853db7934836f3e6ac866286580be94c4dc", 3),
)


def threshold_cut(n: int, eta: float) -> float:
    """The paper's keep/drop level e^2 (ln n)^(2 eta) / n."""
    return math.exp(2.0) * math.log(n) ** (2.0 * eta) / n


def _master_seeds(rng: np.random.Generator, count: int) -> list:
    return [int(s) for s in rng.integers(0, 1 << 63, size=count, dtype=np.int64)]


def cli_order(seed: int) -> list:
    """Indices into CLI_COMMANDS; the seed only permutes the order."""
    return [int(i) for i in np.random.default_rng(seed).permutation(len(CLI_COMMANDS))]


def dense_vectors(seed: int) -> dict:
    """Probability vectors of the dense `mc` cells, by name."""
    rng = np.random.default_rng([seed, 1])
    vectors = {f"uniform{S}": np.full(S, 1.0 / S) for S in (2, 3, 10, 50)}
    vectors["dirichlet50"] = rng.dirichlet(np.ones(50))
    return vectors


def _seeded(specs, rng, copies) -> list:
    """Each spec `copies` times, with fresh master seeds."""
    seeds = iter(_master_seeds(rng, len(specs) * copies))
    return [(*spec, next(seeds)) for spec in specs for _ in range(copies)]


def mc_dense_cells(seed: int) -> list:
    """Empirical everywhere; threshold only where its cut-off is below 1."""
    specs = []
    for name in dense_vectors(seed):
        for n in (25, 1_000, 100_000):
            specs.append((name, n, "empirical"))
            if threshold_cut(n, ETA) < 1.0:
                specs.append((name, n, "threshold"))
    return [{"kind": "mc", "dist": ("dense", name), "n": n, "estimator": est,
             "replicates": DENSE_REPLICATES, "master_seed": s}
            for name, n, est, s in _seeded(specs, np.random.default_rng([seed, 2]),
                                           DENSE_SEEDS)]


def mc_compressed_cells(seed: int) -> list:
    """The results/mc_risk_grid.csv grid, with both estimators."""
    specs = [(c, n, est) for c in (0.3, 0.5, 0.7) for n in (1_000, 10_000, 100_000)
             for est in ("empirical", "threshold")]
    return [{"kind": "mc", "dist": ("entropy-ball", 1.0, c, n), "n": n, "estimator": est,
             "replicates": COMPRESSED_REPLICATES, "master_seed": s}
            for c, n, est, s in _seeded(specs, np.random.default_rng([seed, 3]),
                                        COMPRESSED_SEEDS)]


# (distinct values, Dirichlet concentration): spiky to flat shapes, so
# window widths and tiny-mass atoms both occur.  With four sizes at four n
# the 32 dense cells are 31% of a pass, which puts the 90th percentile
# inside them and the median inside the tiny compressed cells.
DIRICHLET_SHAPES = ((1_000, 0.3), (1_500, 1.0), (2_000, 3.0), (2_500, 10.0))


def exact_vectors(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    return {f"dirichlet{size}": rng.dirichlet(np.full(size, alpha))
            for size, alpha in DIRICHLET_SHAPES}


def exact_dense_cells(seed: int) -> list:
    """Dense Dirichlet vectors at n = 1e3..1e6, then the cor6/cor7 grid."""
    cells = [{"kind": "exact", "dist": ("dense", name), "n": n, "estimator": est}
             for name in exact_vectors(seed) for n in (10**3, 10**4, 10**5, 10**6)
             for est in ("empirical", "threshold")]
    cells += [{"kind": "exact", "dist": ("entropy-ball", 1.0, c, n), "n": n,
               "estimator": est}
              for c in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
              for n in (10**3, 10**4, 10**5, 10**6, 10**7)
              for est in ("empirical", "threshold")]
    return cells


def cells(workload: str, seed: int) -> list:
    """In-process cells of a workload, in pass order."""
    if workload == "mc":
        return mc_dense_cells(seed) + mc_compressed_cells(seed)
    if workload == "exact-dense":
        return exact_dense_cells(seed)
    raise ValueError(f"{workload} has no in-process cells")


def vectors(workload: str, seed: int) -> dict:
    """Dense probability vectors the cells of a workload refer to by name."""
    if workload == "mc":
        return dense_vectors(seed)
    if workload == "exact-dense":
        return exact_vectors(seed)
    return {}


def entropy_ball_delta(H: float, c: float, n: int) -> float:
    """delta = cH / ln n, as the CLI uses for entropy-ball cells."""
    return c * H / math.log(n)
