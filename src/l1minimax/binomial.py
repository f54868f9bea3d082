"""Binomial(n, p) numerics: certified pmf windows and the quantile.

Every pmf window, Binomial and Poisson, is built from exact pmf ratios
outward from one anchor term (`_outward`) and accepted once a geometric
tail bound (`_geometric_tail`) certifies the mass outside it.  Draws
invert the Binomial CDF, equal to boost's quantile bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import UNIFORM_MAX, UNIFORM_MIN

# exp() underflows near -745; anchors beyond this use the log-gamma form.
_LOG_TINY = -700.0
# log(sqrt(2 pi)) and the Stirling series coefficients of cephes `lgam`.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
# Binomial table and walk (`_table`, `_walk`): a draw whose uniform lies
# within this relative distance of one of boost's CDF steps, plus a share
# that grows with the budget and the error of the CDF it was compared
# with (`_unresolved`), goes to boost's quantile.  A margin: no known input
# needs it, and at 0 draws tested near boost's steps still match its quantile.
_GUARD = 1e-9
_UNIT = 2.0 ** -53  # unit roundoff of a double
_TINY = float(np.finfo(float).tiny)  # smallest normal double
# Mass a Binomial table (`_table`) may leave outside its window; far below
# _GUARD times the smallest uniform.
_TABLE_TAIL = 1e-30
# A table costs ~60 us plus ~25 ns an entry, boost ~1-3 us a draw: calls
# with fewer draws than this (`sample_multinomial` makes one a step) take
# the other routes.
_MIN_TABLE_DRAWS = 32
# Largest budget a table inverts (tables stay under ~40,000 entries, ~1 ms).
# Up to it boost's CDF stands within _GUARD of the true CDF a table holds:
# without the band's budget share (`_unresolved`), 1M draws on boost's steps
# +-1 ulp at budgets 1e6-1e7 all matched its quantile, 63 of 20,000 at 1e7-1e8 not.
_MAX_TABLE_BUDGET = 10 ** 7
# A call walks when draws * log1p(mean) exceeds _MIN_WALK_WORK, the mean
# being its largest budget times min(q, 1 - q).  The threshold models
# boost's search as ~0.25 us * log1p(mean) a draw, which undercounts it:
# `_binom_ppf` measures ~1.4 us a draw at budget ~1e3, q = 0.02 (model
# 0.76 us) and 4.7-8.2 us at 1e5 (model 1.9-2.7 us).  The walk costs
# ~100 us a call outside boost at 250 draws, plus ~0.1 us a draw where
# (budget, guess) pairs repeat.  The threshold still splits the routes
# where they cross: on the small-route calls of one `mc` pass, boost whole
# beat the walk below budget 100 (42 vs 70 ms) and lost above it (34 vs
# 28 ms).  Walking every call of a dense S = 50 vector at n = 25 with 250
# replicates took 5.4 ms per cell against boost's 2.9 ms.
_MIN_WALK_WORK = 500.0


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


def _outward(lo: int, hi: int, anchor: int, up, down) -> np.ndarray:
    """pmf(k) / pmf(anchor) on lo..hi, anchor in [lo, hi], by cumulative
    products of exact ratios outward: up(ks) is pmf(k + 1) / pmf(k) at
    ks = anchor..hi-1, down(ks) is pmf(k - 1) / pmf(k) at ks = anchor..lo+1."""
    out = np.empty(hi - lo + 1)
    out[anchor - lo] = 1.0
    if anchor < hi:
        out[anchor - lo + 1:] = np.cumprod(up(np.arange(anchor, hi, dtype=float)))
    if anchor > lo:
        out[anchor - lo - 1::-1] = np.cumprod(down(np.arange(anchor, lo, -1, dtype=float)))
    return out


def _geometric_tail(edge: float, r: float) -> float:
    """Bound on the mass beyond a window edge whose pmf is `edge`, when the
    pmf ratios outward from it start at r and keep shrinking."""
    return math.inf if r >= 1.0 else edge * r / (1.0 - r)


def _window_pmf(n: int, p: float, lo: int, hi: int, anchor: int) -> np.ndarray:
    """Binomial pmf on lo..hi from a log-space anchor and the exact
    multiplicative recurrence (`_outward`).

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
    odds = p / (1.0 - p)
    out = _outward(lo, hi, anchor, lambda ks: (n - ks) / (ks + 1.0) * odds,
                   lambda ks: ks / ((n - ks + 1.0) * odds))
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
            tail += _geometric_tail(pmf[0], lo * (1.0 - p) / ((n - lo + 1.0) * p))
        if hi < n:
            tail += _geometric_tail(pmf[-1], (n - hi) * p / ((hi + 1.0) * (1.0 - p)))
        if tail * term_bound <= tail_tol:
            return lo, pmf, tail
        width *= 2


def _binomial_guess(u: np.ndarray, budgets: np.ndarray, q: float) -> np.ndarray:
    """Cornish-Fisher guess at the Binomial(budgets, q) quantile of u.

    Only where the walk tests a draw: it moves which draws go to boost,
    never a draw's value.  u must lie in (0, 1).
    """
    from scipy.special._ufuncs import ndtri

    z = ndtri(u)
    mean = budgets * q
    sd = np.sqrt(mean * (1.0 - q))
    # the skewness term (1 - 2q) / sd, times sd; -0.5 for the continuity
    # correction, rounded up: the smallest k whose CDF reaches u
    return np.ceil(mean + sd * z + (1.0 - 2.0 * q) * (z * z - 1.0) / 6.0 - 0.5)


def _anchors(budgets: np.ndarray, k: np.ndarray, q: float) -> tuple:
    """Boost's CDF and pmf at each (budget, k).

    When the box of (budget, k) pairs the draws span has no more cells than
    there are draws, pairs repeat (as in a chain's later steps at small n)
    and boost is called once per distinct pair; otherwise once per draw.
    """
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf

    bmin, kmin = int(budgets.min()), int(k.min())
    width = int(k.max()) - kmin + 1
    cells = (int(budgets.max()) - bmin + 1) * width
    if cells > budgets.size:
        return _binom_cdf(k, budgets, q), _binom_pmf(k, budgets, q)
    cell = (budgets - bmin) * width + (k - kmin)
    seen = np.zeros(cells, dtype=bool)
    seen[cell] = True
    pairs = np.flatnonzero(seen)
    slot = np.cumsum(seen) - 1
    bp, kp = np.divmod(pairs, width)
    bp += bmin
    kp += kmin
    at = slot[cell]
    return _binom_cdf(kp, bp, q)[at], _binom_pmf(kp, bp, q)[at]


def _unresolved(u: np.ndarray, below: np.ndarray, above: np.ndarray, err,
                budgets: np.ndarray) -> np.ndarray:
    """Mask of the draws that below < u <= above may not settle as boost's
    quantile does, `below` and `above` being C(k - 1) and C(k) to `err`.

    Boost's quantile compares u with its own CDF, which at budget b stands
    up to about b/2 roundings of C(k) off the true CDF, as it raises the
    rounded 1 - q to a power near b (measured for budgets 1e2 to 1e10:
    0.49 b, as for its C(k - 1) against C(k) - pmf(k)); its shortcut to 0
    for u <= (1 - q)^b by pow stands as far off its C(0).  So u must clear
    both steps by (_GUARD + 2 b _UNIT) C(k) plus `err`, lie below the
    stream's top draw and reach down to its smallest.
    """
    tol = (_GUARD + 2.0 * _UNIT * budgets) * above + err
    return ~((u - below > tol) & (u - above <= -tol) & (u < UNIFORM_MAX) & (u >= UNIFORM_MIN))


def _table(u: np.ndarray, budgets: np.ndarray, q: float) -> tuple:
    """Draws for (u, budgets), all budgets equal, by inversion of a CDF table.

    Returns the draws and a mask of those left unresolved, as `_walk` does.
    The table is the Binomial pmf on a `_binomial_window` of m terms and
    mass at least 1 - tail, normalized by its sum, which cancels the error
    of the window's log-gamma anchor, then summed from the low end; draw u
    takes the k with C(k - 1) < u <= C(k).  Against the true pmf over the
    window's mass, a normalized term is off by at most 11m + 1 roundings
    (5 a step from the anchor, the sum's, the division's), and the
    cumulative sum adds m.  `err`, the bound on C's absolute error, is
    that relative bound doubled for its higher-order terms, plus three
    tails for the mass outside the window, plus _TINY for roundings among
    subnormals.  `_unresolved` decides which draws go to boost.
    """
    lo, pmf, tail = _binomial_window(int(budgets[0]), q, _TABLE_TAIL)
    m = pmf.size
    cdf = np.empty(m + 1)
    cdf[0] = 0.0
    np.cumsum(pmf / pmf.sum(), out=cdf[1:])
    i = np.searchsorted(cdf, u).clip(1, m)
    above = cdf[i]
    err = 2.0 * (12 * m + 1) * _UNIT * above + 3.0 * tail + _TINY
    draws = lo + i - 1
    return draws, _unresolved(u, cdf[i - 1], above, err, budgets)


def _walk(u: np.ndarray, budgets: np.ndarray, q: float) -> tuple:
    """Draws for (u, budgets), each accepted or left to boost at its guess.

    Returns the draws and a mask of those left unresolved, whose values in
    the draws are placeholders.  At a draw's guess k boost gives C(k) and
    pmf(k), so C(k - 1) = C(k) - pmf(k), and the draw is k unless
    `_unresolved` says otherwise.  `err` covers what the band does not of
    the error of C(k - 1) and C(k): the anchors' relative error, taken as
    _GUARD, and the subtraction's rounding.  Draws with budget 0 are
    unresolved too, and every draw of a call whose anchors overflow.
    """
    bad = (budgets <= 0) | (u >= UNIFORM_MAX) | (u < UNIFORM_MIN)
    k = _binomial_guess(np.where(bad, 0.5, u), budgets, q).clip(0, budgets).astype(np.int64)
    try:
        above, pmf = _anchors(budgets, k, q)
    except OverflowError:  # boost's pmf, for q below about 1e-303
        return k, np.ones(u.shape, dtype=bool)
    err = _GUARD * (above + pmf) + _UNIT * above
    return k, bad | _unresolved(u, above - pmf, above, err, budgets)


def _boost_draws(u: np.ndarray, budgets: np.ndarray, q: float) -> np.ndarray:
    """Boost's quantile, clipped to [0, budget]: the definition of a draw."""
    from scipy.special._ufuncs import _binom_ppf

    return _binom_ppf(u, budgets, q).clip(0, budgets).astype(np.int64)


def _binomial_inverse(u: np.ndarray, budgets: np.ndarray, q: float, tally=None) -> np.ndarray:
    """Inverse-CDF Binomial draws, one per (uniform, budget) pair.

    Boost's quantile (`_binom_ppf`, the kernel that scipy.stats.binom.ppf
    dispatches to), clipped to [0, budget], defines every draw.  A call of
    _MIN_TABLE_DRAWS or more draws whose budgets are all equal and at most
    _MAX_TABLE_BUDGET (in `mc_risk`, a chain's first step and so the only
    step of a two-atom family) inverts one CDF table (`_table`).  Other
    calls too small for the walk's fixed cost to pay off (_MIN_WALK_WORK)
    go to `_binom_ppf` whole; in the rest each draw is accepted or
    rejected at its guess (`_walk`) from boost's own CDF and pmf there,
    evaluated once per distinct (budget, guess) pair where pairs repeat.
    One acceptance test (`_unresolved`) makes the draws of both routes
    equal the quantile bit for bit, and the draws it leaves unresolved go
    to `_binom_ppf` draw by draw, not call by call.  `tally`, a Counter if
    given, adds up the draws resolved from tables ("table"), accepted at
    their guess ("walked"), left to boost by either ("fallback"), and in
    small calls ("small").  scipy is imported at the first draw that
    needs boost, so importing this package loads numpy only, and a run
    whose draws all come from tables never loads scipy.
    """
    if q <= 0.0:
        return np.zeros(budgets.shape, dtype=np.int64)
    if q >= 1.0:
        return budgets.copy()
    if (u.size >= _MIN_TABLE_DRAWS and budgets.min() == budgets.max()
            and budgets[0] <= _MAX_TABLE_BUDGET):
        route, (draws, unresolved) = "table", _table(u, budgets, q)
    elif u.size * math.log1p(int(budgets.max(initial=0)) * min(q, 1.0 - q)) <= _MIN_WALK_WORK:
        if tally is not None:
            tally["small"] += u.size
        return _boost_draws(u, budgets, q)
    else:
        route, (draws, unresolved) = "walked", _walk(u, budgets, q)
    rest = np.flatnonzero(unresolved)
    if rest.size:
        draws[rest] = _boost_draws(u[rest], budgets[rest], q)
    if tally is not None:
        tally[route] += u.size - rest.size
        tally["fallback"] += rest.size
    return draws
