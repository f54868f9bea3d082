"""Exact enumeration-based risk computation.

Binomial mean absolute deviation, exact l1 risk of any coordinatewise
estimator under the Multinomial model (marginals are Binomial, so the risk
decomposes into per-coordinate expectations), and exact Poisson total
variation distance.

Only one term of a Binomial window's pmf, its anchor, is evaluated in log
space; the rest come from exact pmf ratios outward from it.  Poisson pmfs
are evaluated term by term in log space.  Expectation sums run over a
window around the Binomial mode and are only accepted once a geometric
tail bound certifies the truncated contribution, so truncation is
certified rather than heuristic.  The 1e-14 budget covers a whole risk
sum: each of its k distinct atoms of multiplicity mult gets
TAIL_TOL / (mult * k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Distribution, _atom_items
from .estimators import CoordinatewiseEstimator

__all__ = [
    "BinomialSpec",
    "PoissonPair",
    "binomial_mad_exact",
    "binomial_expectation",
    "estimator_risk_exact",
    "poisson_tv_exact",
]

# Certified absolute truncation budget for expectation sums.
TAIL_TOL = 1e-14
# Combined Poisson tail mass allowed outside the summation window.
POISSON_TAIL_TOL = 1e-15
# exp() underflows near -745; anchors beyond this use the log-gamma form.
_LOG_TINY = -700.0
# log(sqrt(2 pi)) and the Stirling series coefficients of cephes `lgam`.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)


def _lgamma_int(x: float) -> float:
    """log Gamma(x) for integer-valued x >= 1, bit-identical to cephes
    `lgam` (the kernel of scipy.special.gammaln), so exact risks keep their
    bits without scipy.  math.log is libm's log, as in cephes; numpy's SIMD
    log rounds some integers differently, and so does math.lgamma.
    """
    if x < 13.0:
        return math.log(float(math.factorial(int(x) - 1)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


@dataclass(frozen=True)
class BinomialSpec:
    """Parameters (n, p) of a Binomial count."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise ValueError("n must be a positive integer")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class PoissonPair:
    """An ordered pair of Poisson rates for total-variation computation."""

    lambda_lo: float
    lambda_hi: float

    def __post_init__(self):
        if not (0.0 <= self.lambda_lo <= self.lambda_hi):
            raise ValueError("rates must satisfy 0 <= lambda_lo <= lambda_hi")
        if not math.isfinite(self.lambda_hi):
            raise ValueError("rates must be finite")


def _window_pmf(n: int, p: float, lo: int, hi: int, anchor: int) -> np.ndarray:
    """Binomial pmf on lo..hi from a log-space anchor and the exact
    multiplicative recurrence, vectorized with cumulative products.

    The anchor must lie inside [lo, hi].  When it sits at 0 or n its log
    mass is a single log1p/log product, which keeps small-np windows at
    machine precision; elsewhere it falls back to the log-gamma form.
    """
    if anchor == 0:
        log_a = n * math.log1p(-p)
    elif anchor == n:
        log_a = n * math.log(p)
    else:
        log_a = (_lgamma_int(n + 1.0) - _lgamma_int(anchor + 1.0)
                 - _lgamma_int(n - anchor + 1.0)
                 + anchor * math.log(p) + (n - anchor) * math.log1p(-p))
    out = np.empty(hi - lo + 1)
    out[anchor - lo] = 1.0
    odds = p / (1.0 - p)
    if anchor < hi:
        ks = np.arange(anchor, hi, dtype=float)
        out[anchor - lo + 1:] = np.cumprod((n - ks) / (ks + 1.0) * odds)
    if anchor > lo:
        ks = np.arange(anchor, lo, -1, dtype=float)
        out[anchor - lo - 1::-1] = np.cumprod(ks / ((n - ks + 1.0) * odds))
    out *= math.exp(log_a)
    return out


def _binomial_window(n: int, p: float, tail_tol: float, term_bound: float = 1.0) -> tuple:
    """Binomial(n, p) pmf on a window lo..hi with a certified tail.

    Returns lo, the pmf on lo..hi (`_window_pmf`, not normalized) and a
    bound on the mass outside the window, which times `term_bound` is at
    most `tail_tol`.  The window starts at mode +- (12 sigma + 40) and
    doubles until it is; windows touching 0 and n have no truncation at
    all.  0 < p < 1.
    """
    mode = min(int((n + 1) * p), n)
    sigma = math.sqrt(n * p * (1.0 - p))
    width = int(12.0 * sigma + 40.0)
    while True:
        lo = max(0, mode - width)
        hi = min(n, mode + width)
        if n * math.log1p(-p) > _LOG_TINY:
            anchor = lo = 0
        elif n * math.log(p) > _LOG_TINY:
            anchor = hi = n
        else:
            anchor = min(max(mode, lo), hi)
        pmf = _window_pmf(n, p, lo, hi, anchor)
        tail = 0.0
        if lo > 0:
            # Below the window the pmf ratios keep shrinking, so the tail
            # is dominated by a geometric series at the edge ratio.
            r = lo * (1.0 - p) / ((n - lo + 1.0) * p)
            tail += math.inf if r >= 1.0 else pmf[0] * r / (1.0 - r)
        if hi < n:
            r = (n - hi) * p / ((hi + 1.0) * (1.0 - p))
            tail += math.inf if r >= 1.0 else pmf[-1] * r / (1.0 - r)
        if tail * term_bound <= tail_tol:
            return lo, pmf, tail
        width *= 2


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


def binomial_mad_exact(spec: BinomialSpec) -> float:
    """E|X/n - p| for X ~ Binomial(n, p), exact to summation precision."""
    n, p = spec.n, spec.p
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
    if n < 1:
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


def _poisson_window(lam: float, kmax: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    ks = np.arange(kmax + 1, dtype=float)
    log_fact = np.array([_lgamma_int(k + 1.0) for k in range(kmax + 1)])
    return np.exp(-lam + ks * math.log(lam) - log_fact)


def _poisson_tail_bound(lam: float, pmf_last: float, kmax: int) -> float:
    if lam == 0.0:
        return 0.0
    r = lam / (kmax + 1.0)
    return math.inf if r >= 1.0 else pmf_last * r / (1.0 - r)


def poisson_tv_exact(pair: PoissonPair) -> float:
    """Total variation distance between Poisson(lambda_lo) and Poisson(lambda_hi).

    Half the absolute pmf difference, summed until the combined remaining
    tail mass of both distributions is below 1e-15.
    """
    lam_lo, lam_hi = pair.lambda_lo, pair.lambda_hi
    if lam_lo == lam_hi:
        return 0.0
    kmax = int(max(lam_hi + 20.0 * math.sqrt(lam_hi + 1.0), 50.0))
    while True:
        pmf_lo = _poisson_window(lam_lo, kmax)
        pmf_hi = _poisson_window(lam_hi, kmax)
        tail = (_poisson_tail_bound(lam_lo, pmf_lo[-1], kmax)
                + _poisson_tail_bound(lam_hi, pmf_hi[-1], kmax))
        if tail < POISSON_TAIL_TOL:
            return float(0.5 * np.abs(pmf_lo - pmf_hi).sum())
        kmax *= 2
