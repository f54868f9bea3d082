"""Seeded Monte-Carlo risk estimation.

Determinism contract: every replicate draws from its own uniform stream
keyed by a counter-hash of (master_seed, replicate index), so results are
bit-identical across runs, platforms, chunk sizes and thread counts, and
any single replicate can be regenerated in isolation via
`derive_replicate_seed`.

Sampling uses the sequential conditional-Binomial method: coordinate i is
an inverse-CDF Binomial draw (`binomial`) of the remaining budget with
renormalized probability.  Both distribution types are sampled per (value,
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

from .binomial import _binomial_inverse
from .core import MAX_DENSE_SUPPORT, CountHistogram, Distribution, _atom_items
from .estimators import CoordinatewiseEstimator
from .rng import MAX_INDEX_RANGE, derive_key, derive_seed, stream_key, to_index, uniforms

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
    """Uniform allocation of each row's block draws over `mult` cells, for
    `mc_risk` and `sample_multinomial` alike.

    Row r allocates `totals[r]` draws from stream `keys[r]` at `starts[r]`,
    each to the cell `rng.to_index` maps it to, held exactly as a float.
    Rows are sorted on their own, shorter ones padded with the sentinel
    `mult`, which sorts last.  Returns the sorted cells, each run's flat
    start in them and its count, and per row its first run and occupied
    cells: row r's cells ascend through runs first[r]:first[r] + occupied[r]."""
    width = int(totals.max())
    cells = to_index(uniforms(keys, starts, width), mult)
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


def _stream_layout(keys: np.ndarray, atoms, n: int, tally=None) -> tuple:
    """Chain counts and block starts, both (R, len(atoms)), of each stream.

    Stream `keys[r]` holds the len(atoms) - 1 uniforms of the conditional
    chain, then the draws of each block (atom of multiplicity > 1) in atom
    order, one per count.  `tally` is passed on to `_conditional_chain`.
    """
    if any(m > MAX_INDEX_RANGE for _, m in atoms):
        raise ValueError("atom multiplicity too large to allocate symbols exactly")
    totals = _conditional_chain(keys, [v * m for v, m in atoms], n, tally)
    drawn = totals * np.array([m > 1 for _, m in atoms])
    starts = np.cumsum(drawn, axis=1)
    starts += len(atoms) - 1 - drawn
    return totals, starts


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
    keys = np.array([stream_key(seed)], dtype=np.uint64)
    totals, starts = _stream_layout(keys, atoms, n)
    dense = np.zeros(support, dtype=np.int64)
    offset = 0
    for (value, mult), total, start in zip(atoms, totals[0].tolist(), starts[0].tolist()):
        if mult == 1:
            dense[offset] = total
        elif total > 0:
            cells, run, counts, _, _ = _block_runs(keys, np.array([start]),
                                                   np.array([total]), mult)
            dense[offset + cells[0, run].astype(np.int64)] = counts
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
    values = np.array([v for v, _ in atoms])
    losses = np.zeros(keys.shape[0])
    step = max(1, _CHUNK_CELLS // len(atoms))
    for lo in range(0, keys.shape[0], step):
        batch = keys[lo:lo + step]
        out = losses[lo:lo + step]
        totals, starts = _stream_layout(batch, atoms, n, tally)
        # |f(total) - value| of every atom, the loss of those with mult 1
        singles = np.abs(estimator(totals, n) - values)
        for a, (value, mult) in enumerate(atoms):
            if mult == 1:
                out += singles[:, a]
                continue
            total = totals[:, a]
            # |f(k) - value| for every count k a cell of this block can hold
            loss = np.abs(estimator(np.arange(int(total.max()) + 1), n) - value)
            occupied, sums = _block_losses(batch, starts[:, a], total, mult, loss)
            out += (mult - occupied) * loss[0]
            out += sums
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
