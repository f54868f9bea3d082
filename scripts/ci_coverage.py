"""Measure how often `mc_risk`'s interval covers the exact risk.

The interval is nominally 99.73% (three standard errors, or the interval of
equal losses).  For four cells where the normal approximation is weakest,
each at 100 and 1,000 replicates, this runs `mc_risk` under master seeds
0 .. SEEDS - 1 and counts the runs whose [ci_lo, ci_hi] holds
`estimator_risk_exact`, the test the `mc` command writes as `mc_within_ci`.
Takes a few seconds:

    PYTHONPATH=src python scripts/ci_coverage.py
"""

from __future__ import annotations

import sys

from l1minimax import (CompressedFamily, McConfig, ProbabilityVector, ThresholdConfig,
                       empirical_estimator, estimator_risk_exact, mc_risk,
                       threshold_estimator)

SEEDS = 400
REPLICATES = (100, 1000)


def cells() -> list:
    """(label, distribution, estimator, n); uniform families as `mc --family
    uniform` builds them."""
    empirical = empirical_estimator()
    return [
        ("p = (0.999, 0.001), n = 10", ProbabilityVector([0.999, 0.001]), empirical, 10),
        ("p = (0.99, 0.01), n = 2", ProbabilityVector([0.99, 0.01]), empirical, 2),
        ("uniform S = 1000, n = 10", CompressedFamily(((0.001, 1000),)), empirical, 10),
        # the cut e^2 (ln 10)^3 / 10 ~ 9 zeroes every frequency: each loss is 1
        ("threshold, uniform S = 3, n = 10", CompressedFamily(((1.0 / 3.0, 3),)),
         threshold_estimator(ThresholdConfig(10)), 10),
    ]


def run() -> int:
    measured = cells()  # the threshold cell logs its warning here, above the table
    print(f"{'cell':34} {'replicates':>10} {'covered':>12} {'coverage':>9}")
    for label, p, estimator, n in measured:
        exact = estimator_risk_exact(p, estimator, n)
        for replicates in REPLICATES:
            covered = 0
            for seed in range(SEEDS):
                est = mc_risk(p, estimator, n, McConfig(replicates, seed))
                covered += est.ci_lo <= exact <= est.ci_hi
            print(f"{label:34} {replicates:>10} {f'{covered}/{SEEDS}':>12} "
                  f"{covered / SEEDS:>9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
