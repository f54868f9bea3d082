"""Shared oracles for the test suite.

The brute-force helpers here deliberately avoid the library's computation
paths: risks come from full Multinomial enumeration, pmfs from exact
integer combinatorics, so they can vouch for the fast implementations.
"""

import importlib.util
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from l1minimax import ProbabilityVector, montecarlo

# Every property test draws the same examples on every run (and keeps no database).
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def compositions(n, parts):
    """All nonnegative integer vectors of length `parts` summing to n."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, parts - 1):
            yield (head,) + rest


def multinomial_pmf(counts, probs):
    """Exact multinomial pmf via integer coefficients (small cases only)."""
    n = sum(counts)
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    value = float(coef)
    for c, p in zip(counts, probs):
        if c > 0:
            if p == 0.0:
                return 0.0
            value *= p ** c
    return value


def brute_force_risk(probs, estimator, n):
    """Expected l1 loss by full outcome enumeration."""
    probs = np.asarray(probs, dtype=float)
    total = 0.0
    for counts in compositions(n, probs.size):
        pmf = multinomial_pmf(counts, probs)
        if pmf == 0.0:
            continue
        estimates = estimator(np.array(counts, dtype=np.int64), n)
        total += pmf * float(np.abs(estimates - probs).sum())
    return total


def expand(fam):
    """Dense vector form of a CompressedFamily (small supports only): each
    atom's value repeated multiplicity times, in support order."""
    return ProbabilityVector(np.repeat([v for v, _ in fam.atoms], [m for _, m in fam.atoms]))


def perfbench_spans():
    """The benchmark's tracer module, loaded by path: `perfbench` is no package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def exact_binomial_tail_upper(n, p, threshold):
    """P(X >= threshold) for X ~ Binomial(n, p), threshold real."""
    from scipy.stats import binom
    k0 = math.ceil(threshold)
    if k0 > n:
        return 0.0
    return float(binom.sf(k0 - 1, n, p))


def exact_poisson_tail_upper(lam, threshold):
    """P(X >= threshold) for X ~ Poisson(lam), threshold real."""
    from scipy.stats import poisson
    k0 = math.ceil(threshold)
    return float(poisson.sf(k0 - 1, lam))


def exact_poisson_tail_lower(lam, threshold):
    """P(X <= threshold) for X ~ Poisson(lam), threshold real."""
    from scipy.stats import poisson
    return float(poisson.cdf(math.floor(threshold), lam))


def per_replicate_compressed_losses(keys, fam, estimator, n):
    """Compressed-family losses one replicate at a time: the loop the
    batched kernel replaced.  Each replicate allocates every block's draws
    on its own, not through the library's allocation kernel: the block's
    uniforms (read through `montecarlo.uniforms`, so a test that patches
    the stream patches them too), then cell min(floor(u * mult), mult - 1),
    then `np.unique` for the occupied cells and their counts.  The
    estimator is evaluated on those cells only."""
    atoms = fam.atoms
    masses = [v * m for v, m in atoms]
    totals = montecarlo._conditional_chain(keys, masses, n)
    at_zero = float(estimator(np.zeros(1, dtype=np.int64), n)[0])
    losses = np.empty(keys.shape[0])
    for r in range(keys.shape[0]):
        pos = len(atoms) - 1
        acc = 0.0
        for a, (value, mult) in enumerate(atoms):
            total = int(totals[r, a])
            if mult == 1:
                est = float(estimator(np.array([total], dtype=np.int64), n)[0])
                acc += abs(est - value)
            elif total == 0:
                acc += mult * abs(at_zero - value)
            else:
                us = montecarlo.uniforms(keys[r], pos, total)
                cells = np.minimum(np.floor(us * mult), mult - 1)
                _, cell_counts = np.unique(cells, return_counts=True)
                pos += total
                estimates = estimator(cell_counts, n)
                acc += (mult - cell_counts.size) * abs(at_zero - value)
                acc += float(np.abs(estimates - value).sum())
        losses[r] = acc
    return losses


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every child process a test starts is reaped by the end of the test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
