"""Seeded Monte-Carlo risk estimation.

Determinism contract: every replicate draws from its own uniform stream
keyed by a counter-hash of (master_seed, replicate index), so results are
bit-identical across runs, platforms, chunk sizes and process splits, and
any single replicate can be regenerated in isolation via
`derive_replicate_seed`.

Sampling uses the sequential conditional-Binomial method: coordinate i is
an inverse-CDF Binomial draw (`binomial`) of the remaining budget with
renormalized probability.  Both distribution types are sampled per (value,
multiplicity) atom, a dense vector being the atoms (p_i, 1), and block
counts are split across the block's symbols by uniform allocation from the
same stream.  `mc_risk` evaluates losses for batches of replicates, split
over forked children when large (`_split_losses`); every replicate's draws
and loss are those it has when sampled alone.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binomial import _binomial_inverse
from .core import MAX_DENSE_SUPPORT, Distribution, _atom_items
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
# Padded draws per `_block_runs` batch of width-ordered rows; keeps the
# batch's temporaries within a few hundred KB.  results/mc_risk_grid.csv's
# 9 cells run serially, 2 MB of L2 a core, two sets of 15 in-process rounds,
# median ms at 1 << 13, 14 and 15: 632, 544, 670 and 760, 591, 705; rows
# in replicate order at 1 << 14 took 589 and 685.
_CHUNK_DRAWS = 1 << 14
# Expected block draws per replicate range.  Linux, 2 CPUs: an idle child
# costs ~3.2 ms to fork and join, and a call split in two stops losing
# between 6e5 and 1e6 draws (two sets of 10 alternating process pairs,
# median ms split/serial: 16.8/16.0 and 14.0/15.1 at 6e5, 25.7/26.6 and
# 23.0/32.0 at 1e6, 33.4/54.1 and 34.7/41.1 at 1.5e6).  Of
# results/mc_risk_grid.csv's cells, those at n = 1e5 and n = 1e4, c >= 0.5 split.
_MIN_SPLIT_DRAWS = 500_000


@dataclass(frozen=True)
class McConfig:
    """Replication and seeding parameters; `mc_risk` rejects a seed outside [0, 2^64)."""

    replicates: int
    master_seed: int

    def __post_init__(self):
        if self.replicates < 100 or self.replicates != int(self.replicates):
            raise ValueError("replicates must be an integer of at least 100 for CI "
                             f"reporting, got {self.replicates}")


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


def sample_multinomial(p: Distribution, n: int, seed: int) -> np.ndarray:
    """One Multinomial(n, p) draw, deterministic in the seed: the read-only
    int64 count of each symbol, in support order."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
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
    dense.setflags(write=False)
    return dense


def _block_losses(
    keys: np.ndarray, starts: np.ndarray, totals: np.ndarray, mult: int, loss: np.ndarray,
    tally=None,
) -> tuple:
    """Occupied cells and the summed `loss[count]` over them, per replicate,
    for the draws of one block atom.

    Rows with draws are visited in order of their draw count (a stable
    argsort), and each `_block_runs` call takes consecutive rows while rows
    x widest row stays within _CHUNK_DRAWS padded draws (a row wider than
    that is a batch of its own), so a batch holds rows of near-equal width.
    Rows without draws occupy no cell.  A row's sum runs over its occupied
    cells in ascending order, as a replicate evaluated alone would sum them.
    `tally`, a Counter if given, counts the block rows, batches, real draws
    and padded draws.
    """
    occupied = np.zeros(keys.shape[0], dtype=np.int64)
    sums = np.zeros(keys.shape[0])
    order = np.argsort(totals, kind="stable")
    order = order[totals[order] > 0]
    widths = totals[order].tolist()
    lo = 0
    while lo < len(widths):
        hi = lo + 1
        while hi < len(widths) and (hi + 1 - lo) * widths[hi] <= _CHUNK_DRAWS:
            hi += 1
        rows = order[lo:hi]
        _, _, counts, first, occ = _block_runs(keys[rows], starts[rows], totals[rows], mult)
        run_loss = loss[counts]
        occupied[rows] = occ
        for r, a, k in zip(rows.tolist(), first.tolist(), occ.tolist()):
            sums[r] = run_loss[a:a + k].sum()
        if tally is not None:
            tally["block batches"] += 1
            tally["block padded"] += (hi - lo) * widths[hi - 1]
        lo = hi
    if tally is not None:
        tally["block rows"] += len(widths)
        tally["block draws"] += sum(widths)
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
    the batching.  `tally` is passed on to `_stream_layout` and
    `_block_losses`.
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
            occupied, sums = _block_losses(batch, starts[:, a], total, mult, loss,
                                           tally)
            out += (mult - occupied) * loss[0]
            out += sums
    return losses


def _split_losses(keys: np.ndarray, p: Distribution, estimator: CoordinatewiseEstimator,
                  n: int, tally) -> np.ndarray:
    """`_compressed_losses` by contiguous replicate ranges, one per usable CPU
    and at most one per _MIN_SPLIT_DRAWS expected block draws; forked children
    compute the ranges after the first, each ending in os._exit, and are
    reaped before this returns or raises.  A range whose child got no pipe or
    no process (EMFILE, EAGAIN), or failed, is computed here."""
    reps, count = keys.shape[0], 1
    draws = reps * n * sum(value * mult for value, mult in _atom_items(p) if mult > 1)
    if draws >= 2 * _MIN_SPLIT_DRAWS and hasattr(os, "sched_getaffinity"):
        count = min(int(draws // _MIN_SPLIT_DRAWS), len(os.sched_getaffinity(0)), reps)
    cuts = [reps * i // count for i in range(count + 1)]
    children = {}  # range: (pid, read end of its pipe) of the child computing it
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            try:
                read, write = os.pipe()
            except OSError:  # as a failed fork: this range is computed here
                continue
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                try:
                    own = Counter()
                    losses = _compressed_losses(keys[lo:hi], p, estimator, n, own)
                    with open(write, "wb") as pipe:
                        pickle.dump((losses, own), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[lo, hi] = pid, open(read, "rb")
        out = [_compressed_losses(keys[:cuts[1]], p, estimator, n, tally)]
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            sent = None
            if (lo, hi) in children:
                pid, pipe = children[lo, hi]
                with pipe:
                    sent = pipe.read()
                if os.waitpid(pid, 0)[1] != 0:
                    sent = None
                del children[lo, hi]
            if sent is None:
                out.append(_compressed_losses(keys[lo:hi], p, estimator, n, tally))
                continue
            losses, routes = pickle.loads(sent)
            out.append(losses)
            tally.update(routes)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return np.concatenate(out)


def mc_risk(
    p: Distribution,
    estimator: CoordinatewiseEstimator,
    n: int,
    cfg: McConfig,
) -> McRiskEstimate:
    """Monte-Carlo estimate of the expected l1 risk with a z-score CI.

    Losses are accumulated in replicate-index order, so the reported mean
    does not depend on batching or on splitting over processes.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    keys = derive_key(cfg.master_seed, np.arange(cfg.replicates, dtype=np.uint64))
    tally = Counter()
    losses = _split_losses(keys, p, estimator, n, tally)
    logger.debug("mc_risk: Binomial draws from tables %d, walked %d, sent to boost by "
                 "a table or the walk %d, in calls too small to walk %d", tally["table"],
                 tally["walked"], tally["fallback"], tally["small"])
    if "block rows" in tally:  # counted, if only zeros, for every block atom
        logger.debug("mc_risk: block allocation of %d rows in %d batches, %d draws padded "
                     "to %d", tally["block rows"], tally["block batches"],
                     tally["block draws"], tally["block padded"])
    reps = cfg.replicates
    mean = float(losses.sum() / reps)
    variance = float(np.square(losses - mean).sum() / (reps - 1))
    std_error = math.sqrt(variance / reps)
    half = 3.0 * std_error  # interval half-width: three standard errors
    return McRiskEstimate(mean, std_error, mean - half, mean + half, reps, cfg.master_seed)
