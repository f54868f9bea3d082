"""Seeded Monte-Carlo risk estimation.

Determinism contract: every replicate draws from its own uniform stream
keyed by a counter-hash of (master_seed, replicate index), so results are
bit-identical across runs, platforms, chunk sizes and thread counts, and
any single replicate can be regenerated in isolation via
`derive_replicate_seed`.

Sampling uses the sequential conditional-Binomial method: coordinate i is
an inverse-CDF Binomial of the remaining budget with renormalized
probability.  Both distribution types are sampled per (value,
multiplicity) atom, a dense vector being the atoms (p_i, 1), and block
counts are split across the block's symbols by uniform allocation from the
same stream.  `mc_risk` evaluates losses for a batch of replicates at
once; every replicate's draws and loss are those it has when sampled alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import MAX_DENSE_SUPPORT, CountHistogram, Distribution, _atom_items
from .estimators import CoordinatewiseEstimator
from .exact import estimator_risk_exact
from .rng import derive_key, derive_seed, stream_key, uniforms

__all__ = [
    "McConfig",
    "McRiskEstimate",
    "ScanResult",
    "sample_multinomial",
    "mc_risk",
    "sup_risk_scan",
    "derive_replicate_seed",
]

# Conditional-chain counts (replicates x atoms) per batch; keeps peak
# memory flat for vectors with many atoms.
_CHUNK_CELLS = 2_000_000
# Padded draws per batch of replicates in a block atom; keeps the batch's
# temporaries within a few hundred KB.
_CHUNK_DRAWS = 1 << 13
# floor(u * multiplicity) is an exact uniform cell index only below 2^53.
_MAX_BLOCK_MULT = 1 << 53


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


class ScanResult(NamedTuple):
    argmax_index: int
    max_risk: float


def derive_replicate_seed(master_seed: int, replicate: int) -> int:
    """Seed reproducing one replicate of `mc_risk` via `sample_multinomial`."""
    return derive_seed(master_seed, replicate)


def _binomial_inverse(u: np.ndarray, budgets: np.ndarray, q: float) -> np.ndarray:
    """Inverse-CDF Binomial draws, one per (uniform, budget) pair.

    Calls boost's quantile, the kernel that scipy.stats.binom.ppf dispatches
    to, without the rv_discrete wrapper, whose argument handling costs more
    than small draws; the clipped values are the same, bit for bit.  scipy
    is imported here, at the first draw, so importing this package loads
    numpy only.
    """
    if q <= 0.0:
        return np.zeros(budgets.shape, dtype=np.int64)
    if q >= 1.0:
        return budgets.copy()
    from scipy.special._ufuncs import _binom_ppf

    draws = _binom_ppf(u, budgets, q)
    return np.clip(draws, 0, budgets).astype(np.int64)


def _conditional_chain(keys: np.ndarray, masses: Sequence[float], n: int) -> np.ndarray:
    """Counts for each mass bucket by sequential conditional Binomials.

    keys has shape (R,); the result has shape (R, len(masses)) with rows
    summing to n.  Consumes uniforms 0 .. len(masses)-2 of each stream.
    """
    count = len(masses)
    rows = keys.shape[0]
    out = np.zeros((rows, count), dtype=np.int64)
    if count == 1:
        out[:, 0] = n
        return out
    draws = uniforms(keys, 0, count - 1)
    remaining = np.full(rows, n, dtype=np.int64)
    mass_left = 1.0
    for i in range(count - 1):
        q = masses[i] / mass_left if mass_left > 0 else 1.0
        x = _binomial_inverse(draws[:, i], remaining, q)
        out[:, i] = x
        remaining -= x
        mass_left -= masses[i]
    out[:, count - 1] = remaining
    return out


def _block_cells(key: np.uint64, start: int, total: int, mult: int) -> tuple:
    """Uniform allocation of `total` draws over `mult` cells; returns the
    occupied cell ids, their counts, and the next stream position."""
    us = uniforms(key, start, total)
    cells = np.minimum((us * mult).astype(np.int64), mult - 1)
    occupied, counts = np.unique(cells, return_counts=True)
    return occupied, counts, start + total


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
            occupied, counts, pos = _block_cells(key, pos, int(total), mult)
            dense[offset + occupied] += counts
        offset += mult
    return CountHistogram(dense, n)


def _block_losses(
    keys: np.ndarray, starts: np.ndarray, totals: np.ndarray, mult: int, loss: np.ndarray
) -> tuple:
    """Occupied cells and the summed `loss[count]` over them, per replicate,
    for the draws of one block atom.

    Row r allocates `totals[r]` draws from stream `keys[r]`, starting at
    `starts[r]`, over `mult` cells.  Rows are batched up to _CHUNK_DRAWS
    padded draws (a row wider than that is a batch of its own).  Within a
    batch each row is sorted on its own, and its sum runs over its
    occupied cells in ascending order, as a replicate evaluated alone
    would sum them.
    """
    rows = keys.shape[0]
    occupied = np.zeros(rows, dtype=np.int64)
    sums = np.zeros(rows)
    step = max(1, _CHUNK_DRAWS // max(1, int(totals.max())))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        total = totals[lo:hi]
        width = int(total.max())
        if width == 0:
            continue
        # Cell ids min(floor(u * mult), mult - 1), held exactly as floats.
        cells = uniforms(keys[lo:hi], starts[lo:hi], width)
        cells *= mult
        np.floor(cells, out=cells)
        np.minimum(cells, mult - 1, out=cells)
        # Pad each row to `width` with the sentinel `mult`, which sorts last
        # and so forms the row's final run, left out of its sum.
        padded = total < width
        if padded.any():
            cells[np.arange(width) >= total[:, None]] = mult
        cells.sort(axis=1)
        run_start = np.empty(cells.shape, dtype=bool)
        run_start[:, 0] = True
        np.not_equal(cells[:, 1:], cells[:, :-1], out=run_start[:, 1:])
        first = np.flatnonzero(run_start)
        counts = np.empty_like(first)
        np.subtract(first[1:], first[:-1], out=counts[:-1])
        counts[-1] = cells.size - first[-1]
        run_loss = loss[counts]
        # each row's runs start at the first run at or past its column 0
        row_runs = np.searchsorted(first, np.arange(0, cells.size + 1, width))
        occ = row_runs[1:] - row_runs[:-1] - padded
        occupied[lo:hi] = occ
        for r, a, k in zip(range(lo, hi), row_runs.tolist(), occ.tolist()):
            sums[r] = run_loss[a:a + k].sum()
    return occupied, sums


def _compressed_losses(
    keys: np.ndarray, p: Distribution, estimator: CoordinatewiseEstimator, n: int
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
        totals = _conditional_chain(batch, masses, n)
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
    losses = _compressed_losses(keys, p, estimator, n)
    reps = cfg.replicates
    mean = float(losses.sum() / reps)
    variance = float(np.square(losses - mean).sum() / (reps - 1))
    std_error = math.sqrt(variance / reps)
    half = 3.0 * std_error  # interval half-width: three standard errors
    return McRiskEstimate(mean, std_error, mean - half, mean + half, reps, cfg.master_seed)


def sup_risk_scan(
    family_grid: Sequence[Distribution],
    estimator: CoordinatewiseEstimator,
    n: int,
) -> ScanResult:
    """Exact risk of each candidate family; the first maximizer wins ties."""
    if len(family_grid) == 0:
        raise ValueError("family grid must be non-empty")
    risks = [estimator_risk_exact(fam, estimator, n) for fam in family_grid]
    best = int(np.argmax(risks))
    return ScanResult(best, risks[best])
