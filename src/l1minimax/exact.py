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

Every sum is numpy's pairwise sum, whose order depends only on the number
of terms, never BLAS: a window built as a list (`binomial._list_window`)
is summed by `_pairwise_sum` in the same order, so no value depends on
the route, the CPU or the thread count.  numpy is imported only when a
window is an array.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

# _window_pmf is bound here because perfbench/spans.py hooks exact._window_pmf
from .binomial import (_MAX_WINDOW, _binomial_window, _geometric_tail, _outward,
                       _pairwise_sum, _window_pmf)
from .core import Distribution, _atom_items, _sample_size
from .estimators import CoordinatewiseEstimator, ThresholdRule

if TYPE_CHECKING:
    import numpy as np

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
    term_list: Optional[Callable[[range], list]] = None,
) -> float:
    """Sum of term(k) * pmf(k) over k = 0..n with certified truncation.

    `term` maps an int64 array of counts to values bounded by `term_bound`
    in absolute value.  The sum runs over a `_binomial_window` whose tail
    bound times `term_bound` is at most `tail_tol`, the single count 0 or n
    at p = 0 or 1.  `term_list`, if given, maps a range of counts to the
    list of the same values, bit for bit; a window built as a list is then
    summed without numpy.
    """
    lo, pmf, _ = _binomial_window(n, p, tail_tol, term_bound)
    if term_list is not None and isinstance(pmf, list):
        terms = term_list(range(lo, lo + len(pmf)))
        return _pairwise_sum([t * q for t, q in zip(terms, pmf)])
    import numpy as np

    pmf = np.asarray(pmf)  # a list window, for a term on arrays alone
    ks = np.arange(lo, lo + pmf.size, dtype=np.int64)
    return float((term(ks) * pmf).sum())


def binomial_mad_exact(n: int, p: float) -> float:
    """E|X/n - p| for X ~ Binomial(n, p), exact to summation precision."""
    n = _sample_size(n, 63)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rule = ThresholdRule(0.0)  # the empirical rule, k -> k / n
    return binomial_expectation(n, p, lambda ks: abs(rule(ks, n) - p), max(p, 1.0 - p),
                                term_list=partial(rule.losses, n=n, value=p))


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
    n = _sample_size(n, 63)
    rule = estimator.fn if isinstance(estimator.fn, ThresholdRule) else None
    atoms = _grouped_atoms(p)
    total = 0.0
    for value, mult in atoms:

        def loss(ks: np.ndarray, v=value) -> np.ndarray:
            return abs(estimator(ks, n) - v)

        # this atom's share of the budget: sum of mult * tail <= TAIL_TOL
        tail_tol = TAIL_TOL / (mult * len(atoms))
        total += float(mult) * binomial_expectation(
            n, value, loss, tail_tol=tail_tol,
            term_list=None if rule is None else partial(rule.losses, n=n, value=value))
    return total


def _poisson_window(lam: float, lo: int, hi: int) -> list | np.ndarray:
    """Poisson(lam) pmf on lo..hi, lo <= lam <= hi, by exact ratios outward
    from the mode (`_outward`), normalized by its sum on the window."""
    pmf = _outward(lo, hi, int(lam), lambda ks: lam / (ks + 1.0), lambda ks: ks / lam)
    if isinstance(pmf, list):
        mass = _pairwise_sum(pmf)
        return [value / mass for value in pmf]
    return pmf / pmf.sum()


def poisson_tv_exact(lam_lo: float, lam_hi: float) -> float:
    """Total variation distance between Poisson(lam_lo) and Poisson(lam_hi).

    Half the absolute pmf difference over one window from w = 20 deviations
    below lam_lo to w above lam_hi, widened until the combined mass of both
    distributions outside it is below 1e-15.  A window past
    `binomial._MAX_WINDOW` points raises ValueError naming the rates.
    """
    if not (lam_lo <= sys.float_info.max and lam_hi <= sys.float_info.max):  # NaN too
        raise ValueError(f"lam_lo and lam_hi must be finite, got {lam_lo}, {lam_hi}")
    if not (0.0 <= lam_lo <= lam_hi):
        raise ValueError(f"rates must satisfy 0 <= lam_lo <= lam_hi, got {lam_lo}, {lam_hi}")
    if lam_lo == lam_hi:
        return 0.0
    width = 20.0
    hi = int(max(lam_hi + width * math.sqrt(lam_hi + 1.0), 50.0))
    while True:
        lo = max(0, math.floor(lam_lo - width * math.sqrt(lam_lo + 1.0)))
        if hi - lo >= _MAX_WINDOW:
            raise ValueError(f"rates lam_lo={lam_lo!r}, lam_hi={lam_hi!r} are too large for an "
                             f"exact sum: their pmf window exceeds {_MAX_WINDOW:,} points")
        pmfs = [_poisson_window(lam, lo, hi) for lam in (lam_lo, lam_hi)]
        # outward pmf ratios shrink: lam / (k + 1) past hi, k / lam below lo
        tail = sum(_geometric_tail(pmf[-1], lam / (hi + 1.0))
                   + (_geometric_tail(pmf[0], lo / lam) if lo else 0.0)
                   for lam, pmf in zip((lam_lo, lam_hi), pmfs))
        if tail < POISSON_TAIL_TOL:
            if isinstance(pmfs[0], list):
                return 0.5 * _pairwise_sum([abs(a - b) for a, b in zip(*pmfs)])
            return float(0.5 * abs(pmfs[0] - pmfs[1]).sum())
        width *= 2.0
        hi *= 2
