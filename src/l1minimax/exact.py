"""Exact enumeration-based risk computation.

Binomial mean absolute deviation, exact l1 risk of any coordinatewise
estimator under the Multinomial model (marginals are Binomial, so the risk
decomposes into per-coordinate expectations), and exact Poisson total
variation distance.

Sums run over certified pmf windows (`binomial`); the Poisson TV sums
both pmfs over one window around the two rates, each anchored at its mode
and normalized by its sum on the window.  The 1e-14 truncation
budget covers a whole risk sum: each of its k distinct atoms of
multiplicity mult gets TAIL_TOL / (mult * k).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# _window_pmf is bound here because perfbench/spans.py hooks exact._window_pmf
from .binomial import _binomial_window, _geometric_tail, _outward, _window_pmf
from .core import Distribution, _atom_items
from .estimators import CoordinatewiseEstimator

__all__ = [
    "binomial_mad_exact",
    "binomial_expectation",
    "estimator_risk_exact",
    "poisson_tv_exact",
]

# Certified absolute truncation budget for expectation sums.
TAIL_TOL = 1e-14
# Combined Poisson tail mass allowed outside the summation window.
POISSON_TAIL_TOL = 1e-15


def binomial_expectation(
    n: int,
    p: float,
    term: Callable[[np.ndarray], np.ndarray],
    term_bound: float = 1.0,
    tail_tol: float = TAIL_TOL,
) -> float:
    """Sum of term(k) * pmf(k) over k = 0..n with certified truncation.

    `term` maps an int64 array of counts to values bounded by `term_bound`
    in absolute value.  The sum runs over a `_binomial_window` whose tail
    bound times `term_bound` is at most `tail_tol`.
    """
    if p <= 0.0:
        return float(term(np.array([0], dtype=np.int64))[0])
    if p >= 1.0:
        return float(term(np.array([n], dtype=np.int64))[0])
    lo, pmf, _ = _binomial_window(n, p, tail_tol, term_bound)
    ks = np.arange(lo, lo + pmf.size, dtype=np.int64)
    return float(np.dot(term(ks), pmf))


def binomial_mad_exact(n: int, p: float) -> float:
    """E|X/n - p| for X ~ Binomial(n, p), exact to summation precision."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    bound = max(p, 1.0 - p)
    return binomial_expectation(n, p, lambda ks: np.abs(ks / n - p), bound)


def _grouped_atoms(p: Distribution) -> list:
    """(value, multiplicity) pairs merged on equal values, sorted ascending.

    The fixed ordering makes the risk sum bit-stable however the per-atom
    terms are later scheduled.
    """
    merged: dict = {}
    for value, mult in _atom_items(p):
        merged[value] = merged.get(value, 0) + mult
    return sorted(merged.items())


def estimator_risk_exact(
    p: Distribution,
    estimator: CoordinatewiseEstimator,
    n: int,
) -> float:
    """Exact expected l1 risk of a coordinatewise estimator at distribution p.

    Computed per unique atom value then scaled by multiplicity, so families
    with one repeated tiny value cost constant work per distinct value.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    atoms = _grouped_atoms(p)
    total = 0.0
    for value, mult in atoms:

        def loss(ks: np.ndarray, v=value) -> np.ndarray:
            return np.abs(estimator(ks, n) - v)

        # this atom's share of the budget: sum of mult * tail <= TAIL_TOL
        tail_tol = TAIL_TOL / (mult * len(atoms))
        total += float(mult) * binomial_expectation(n, value, loss, tail_tol=tail_tol)
    return total


def _poisson_window(lam: float, lo: int, hi: int) -> np.ndarray:
    """Poisson(lam) pmf on lo..hi, lo <= lam <= hi, by exact ratios outward
    from the mode (`_outward`), normalized by its sum on the window."""
    pmf = _outward(lo, hi, int(lam), lambda ks: lam / (ks + 1.0), lambda ks: ks / lam)
    return pmf / pmf.sum()


def poisson_tv_exact(lam_lo: float, lam_hi: float) -> float:
    """Total variation distance between Poisson(lam_lo) and Poisson(lam_hi).

    Half the absolute pmf difference over one window from w = 20 deviations
    below lam_lo to w above lam_hi, widened until the combined mass of both
    distributions outside it is below 1e-15.
    """
    if not (0.0 <= lam_lo <= lam_hi):
        raise ValueError("rates must satisfy 0 <= lambda_lo <= lambda_hi")
    if not math.isfinite(lam_hi):
        raise ValueError("rates must be finite")
    if lam_lo == lam_hi:
        return 0.0
    width = 20.0
    hi = int(max(lam_hi + width * math.sqrt(lam_hi + 1.0), 50.0))
    while True:
        lo = max(0, math.floor(lam_lo - width * math.sqrt(lam_lo + 1.0)))
        pmfs = [_poisson_window(lam, lo, hi) for lam in (lam_lo, lam_hi)]
        # outward pmf ratios shrink: lam / (k + 1) past hi, k / lam below lo
        tail = sum(_geometric_tail(pmf[-1], lam / (hi + 1.0))
                   + (_geometric_tail(pmf[0], lo / lam) if lo else 0.0)
                   for lam, pmf in zip((lam_lo, lam_hi), pmfs))
        if tail < POISSON_TAIL_TOL:
            return float(0.5 * np.abs(pmfs[0] - pmfs[1]).sum())
        width *= 2.0
        hi *= 2
