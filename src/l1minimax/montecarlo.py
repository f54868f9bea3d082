"""Seeded Monte-Carlo risk estimation.

Determinism contract: every replicate draws from its own uniform stream
keyed by a counter-hash of (master_seed, replicate index), so results are
bit-identical across runs, platforms, chunk sizes and thread counts, and
any single replicate can be regenerated in isolation via
`derive_replicate_seed`.

Sampling uses the sequential conditional-Binomial method: coordinate i is
an inverse-CDF Binomial of the remaining budget with renormalized
probability, equal to boost's quantile bit for bit.  In `mc_risk` the
first step, whose budget is n in every replicate, inverts one CDF table
for n up to 1e7; other steps accept or reject each draw at its guess from
boost's CDF or, when small, call boost's quantile.
scipy is imported at the first draw that needs boost, so `mc_risk` on a
two-atom family, whose chain has one step, loads it only for a draw in a
guard band.  Both distribution types are sampled per (value,
multiplicity) atom, a dense vector being the atoms (p_i, 1), and block
counts are split across the block's symbols by uniform allocation from the
same stream.  `mc_risk` evaluates losses for a batch of replicates at
once; every replicate's draws and loss are those it has when sampled alone.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MAX_DENSE_SUPPORT, CountHistogram, Distribution, _atom_items
from .estimators import CoordinatewiseEstimator
from .exact import _binomial_window
from .rng import derive_key, derive_seed, stream_key, uniforms

__all__ = [
    "McConfig",
    "McRiskEstimate",
    "sample_multinomial",
    "mc_risk",
    "derive_replicate_seed",
]

logger = logging.getLogger(__name__)

# Conditional-chain counts (replicates x atoms) per batch; keeps peak
# memory flat for vectors with many atoms.
_CHUNK_CELLS = 2_000_000
# Padded draws per batch of replicates in a block atom; keeps the batch's
# temporaries within a few hundred KB.
_CHUNK_DRAWS = 1 << 13
# floor(u * multiplicity) is an exact uniform cell index only below 2^53.
_MAX_BLOCK_MULT = 1 << 53
# Binomial table and walk (`_table`, `_walk`): a draw whose uniform lies
# within this relative distance of one of boost's CDF steps, plus a share
# that grows with the budget and the error of the CDF it was compared
# with (`_unresolved`), goes to boost's quantile.
_GUARD = 1e-9
_UNIT = 2.0 ** -53  # unit roundoff of a double
_TINY = float(np.finfo(float).tiny)  # smallest normal double
# `rng.uniforms` never draws below this; smaller uniforms go to boost.
_MIN_WALK_U = 2.0 ** -54
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
# being its largest budget times min(q, 1 - q).  Boost's search costs
# about 0.25 us * log1p(mean) a draw; the walk ~50 us a call plus ~0.1 us
# a draw where (budget, guess) pairs repeat.  Walking every call of a
# dense S = 50 vector at n = 25 with 250 replicates took 5.4 ms per cell
# against boost's 2.9 ms.
_MIN_WALK_WORK = 500.0


@dataclass(frozen=True)
class McConfig:
    """Replication and seeding parameters for a Monte-Carlo run."""

    replicates: int
    master_seed: int

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError("replicates must be at least 100 for CI reporting")
        if not (0 <= self.master_seed < 1 << 64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class McRiskEstimate:
    """Sample mean of per-replicate l1 losses with a z-score interval."""

    mean: float
    std_error: float
    ci_lo: float
    ci_hi: float
    replicates: int
    master_seed: int


def derive_replicate_seed(master_seed: int, replicate: int) -> int:
    """Seed reproducing one replicate of `mc_risk` via `sample_multinomial`."""
    return derive_seed(master_seed, replicate)


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
    both steps by (_GUARD + 2 b _UNIT) C(k) plus `err`, lie below 1 and
    reach every uniform `rng.uniforms` draws.
    """
    tol = (_GUARD + 2.0 * _UNIT * budgets) * above + err
    return ~((u - below > tol) & (u - above <= -tol) & (u < 1.0) & (u >= _MIN_WALK_U))


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
    bad = (budgets <= 0) | (u >= 1.0) | (u < _MIN_WALK_U)
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


def _conditional_chain(
    keys: np.ndarray, masses: Sequence[float], n: int, tally=None
) -> np.ndarray:
    """Counts for each mass bucket by sequential conditional Binomials.

    keys has shape (R,); the result has shape (R, len(masses)) with rows
    summing to n.  Consumes uniforms 0 .. len(masses)-2 of each stream.
    `tally` is passed on to `_binomial_inverse`.
    """
    count = len(masses)
    rows = keys.shape[0]
    out = np.zeros((rows, count), dtype=np.int64)
    draws = uniforms(keys, 0, count - 1)
    remaining = np.full(rows, n, dtype=np.int64)
    mass_left = 1.0
    for i in range(count - 1):
        q = masses[i] / mass_left if mass_left > 0 else 1.0
        x = _binomial_inverse(draws[:, i], remaining, q, tally)
        out[:, i] = x
        remaining -= x
        mass_left -= masses[i]
    out[:, count - 1] = remaining
    return out


def _block_runs(keys: np.ndarray, starts: np.ndarray, totals: np.ndarray, mult: int) -> tuple:
    """Uniform allocation of each row's block draws over `mult` cells.

    Row r allocates `totals[r]` draws from stream `keys[r]` at `starts[r]`;
    a draw u lands in cell min(floor(u * mult), mult - 1), held exactly as
    a float.  Rows are sorted on their own, shorter ones padded with the
    sentinel `mult`, which sorts last.  Returns the sorted cells, each
    run's flat start in them and its count, and per row its first run and
    occupied cells: row r's cells ascend through runs first[r]:first[r] +
    occupied[r]."""
    width = int(totals.max())
    cells = uniforms(keys, starts, width)
    cells *= mult
    np.floor(cells, out=cells)
    np.minimum(cells, mult - 1, out=cells)
    padded = totals < width
    if padded.any():
        cells[np.arange(width) >= totals[:, None]] = mult
    cells.sort(axis=1)
    run_start = np.empty(cells.shape, dtype=bool)
    run_start[:, 0] = True
    np.not_equal(cells[:, 1:], cells[:, :-1], out=run_start[:, 1:])
    run = np.flatnonzero(run_start)
    counts = np.empty_like(run)
    np.subtract(run[1:], run[:-1], out=counts[:-1])
    counts[-1] = cells.size - run[-1]
    # each row's runs start at the first run at or past its column 0
    first = np.searchsorted(run, np.arange(0, cells.size + 1, width))
    return cells, run, counts, first[:-1], first[1:] - first[:-1] - padded


def _block_cells(key: np.uint64, start: int, total: int, mult: int) -> tuple:
    """One block's occupied cell ids, their counts, and the next stream position."""
    cells, run, counts, _, _ = _block_runs(
        np.array([key]), np.array([start]), np.array([total]), mult)
    return cells.ravel()[run].astype(np.int64), counts, start + total


def _check_block_mults(atoms) -> None:
    for _, mult in atoms:
        if mult > _MAX_BLOCK_MULT:
            raise ValueError("atom multiplicity too large to allocate symbols exactly")


def sample_multinomial(p: Distribution, n: int, seed: int) -> CountHistogram:
    """One Multinomial(n, p) draw, deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be positive")
    atoms = _atom_items(p)
    support = sum(m for _, m in atoms)
    # A vector with that many atoms already holds one float per symbol.
    if support > MAX_DENSE_SUPPORT and support > len(atoms):
        raise ValueError(
            f"support size {support} too large for a dense histogram; "
            "use mc_risk, which never materializes per-symbol counts")
    _check_block_mults(atoms)
    key = stream_key(seed)
    masses = [v * m for v, m in atoms]
    totals = _conditional_chain(np.array([key], dtype=np.uint64), masses, n)[0]
    dense = np.zeros(support, dtype=np.int64)
    pos = len(atoms) - 1
    offset = 0
    for (value, mult), total in zip(atoms, totals):
        if mult == 1:
            dense[offset] = total
        elif total > 0:
            cells, counts, pos = _block_cells(key, pos, int(total), mult)
            dense[offset + cells] = counts
        offset += mult
    return CountHistogram(dense, n)


def _block_losses(
    keys: np.ndarray, starts: np.ndarray, totals: np.ndarray, mult: int, loss: np.ndarray
) -> tuple:
    """Occupied cells and the summed `loss[count]` over them, per replicate,
    for the draws of one block atom.

    Rows are allocated by `_block_runs` in batches of up to _CHUNK_DRAWS
    padded draws (a row wider than that is a batch of its own).  A row's
    sum runs over its occupied cells in ascending order, as a replicate
    evaluated alone would sum them.
    """
    rows = keys.shape[0]
    occupied = np.zeros(rows, dtype=np.int64)
    sums = np.zeros(rows)
    step = max(1, _CHUNK_DRAWS // max(1, int(totals.max())))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        if not totals[lo:hi].any():
            continue
        _, _, counts, first, occ = _block_runs(keys[lo:hi], starts[lo:hi], totals[lo:hi], mult)
        run_loss = loss[counts]
        occupied[lo:hi] = occ
        for r, a, k in zip(range(lo, hi), first.tolist(), occ.tolist()):
            sums[r] = run_loss[a:a + k].sum()
    return occupied, sums


def _compressed_losses(
    keys: np.ndarray, p: Distribution, estimator: CoordinatewiseEstimator, n: int,
    tally=None,
) -> np.ndarray:
    """Per-replicate l1 losses without materializing per-symbol counts.

    Unoccupied symbols inside a block all contribute |f(0) - value|, so only
    the occupied cells of each block are ever touched.  Replicates are
    evaluated in batches of at most _CHUNK_CELLS chain counts, atom by atom;
    each one's draws, and the order and grouping of the sums that make its
    loss, are those of evaluating it on its own, so losses do not depend on
    the batching.
    """
    atoms = _atom_items(p)
    _check_block_mults(atoms)
    masses = [v * m for v, m in atoms]
    values = np.array([v for v, _ in atoms])
    losses = np.zeros(keys.shape[0])
    step = max(1, _CHUNK_CELLS // len(atoms))
    for lo in range(0, keys.shape[0], step):
        batch = keys[lo:lo + step]
        out = losses[lo:lo + step]
        totals = _conditional_chain(batch, masses, n, tally)
        # |f(total) - value| of every atom, the loss of those with mult 1
        singles = np.abs(estimator(totals, n) - values)
        pos = np.full(batch.shape[0], len(atoms) - 1, dtype=np.int64)
        for a, (value, mult) in enumerate(atoms):
            if mult == 1:
                out += singles[:, a]
                continue
            total = totals[:, a]
            # |f(k) - value| for every count k a cell of this block can hold
            loss = np.abs(estimator(np.arange(int(total.max()) + 1), n) - value)
            occupied, sums = _block_losses(batch, pos, total, mult, loss)
            out += (mult - occupied) * loss[0]
            out += sums
            pos += total
    return losses


def mc_risk(
    p: Distribution,
    estimator: CoordinatewiseEstimator,
    n: int,
    cfg: McConfig,
) -> McRiskEstimate:
    """Monte-Carlo estimate of the expected l1 risk with a z-score CI.

    Losses are accumulated in replicate-index order, so the reported mean
    does not depend on batching.
    """
    if n < 1:
        raise ValueError("n must be positive")
    keys = derive_key(cfg.master_seed, np.arange(cfg.replicates, dtype=np.uint64))
    tally = Counter()
    losses = _compressed_losses(keys, p, estimator, n, tally)
    logger.debug("mc_risk: Binomial draws from tables %d, walked %d, sent to boost by "
                 "a table or the walk %d, in calls too small to walk %d", tally["table"],
                 tally["walked"], tally["fallback"], tally["small"])
    reps = cfg.replicates
    mean = float(losses.sum() / reps)
    variance = float(np.square(losses - mean).sum() / (reps - 1))
    std_error = math.sqrt(variance / reps)
    half = 3.0 * std_error  # interval half-width: three standard errors
    return McRiskEstimate(mean, std_error, mean - half, mean + half, reps, cfg.master_seed)
