"""Deterministic counter-based uniform streams.

Every random quantity in this package is a pure function of a 64-bit key
and a draw index, built from the splitmix64 finalizer.  This keeps results
bit-identical across runs, platforms and thread counts, and lets any draw
be recomputed in isolation (no generator state to replay).
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)


def mix64(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays (mod 2^64)."""
    with np.errstate(over="ignore"):
        x = np.uint64(x) if np.isscalar(x) or np.ndim(x) == 0 else x
        # in place after the first step: three temporaries, not nine
        z = x >> np.uint64(30)
        z ^= x
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
        return z


def stream_key(seed: int) -> np.uint64:
    """Map a user-facing integer seed to an internal stream key."""
    return mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))


def derive_key(master_seed: int, index: int | np.ndarray) -> np.uint64 | np.ndarray:
    """Counter-hash of (master_seed, index); the splitmix64 stream at `index`.

    `derive_key(m, r)` equals `stream_key(derive_seed(m, r))` so that a
    sub-stream can be reproduced in isolation from its derived seed.
    """
    with np.errstate(over="ignore"):
        base = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
        idx = np.asarray(index, dtype=np.uint64)
        seeds = base + (idx + np.uint64(1)) * _GAMMA
        return mix64(mix64(seeds))


def derive_seed(master_seed: int, index: int) -> int:
    """Per-index seed as a plain integer, usable wherever a seed is accepted."""
    with np.errstate(over="ignore"):
        base = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
        return int(mix64(base + (np.uint64(index) + np.uint64(1)) * _GAMMA))


# Every stream hashes the same counters (draw indices), so their hashes are
# shared: computed a page at a time, with the recent pages kept read-only.
# Replicates drawing at the same offsets, batch after batch, then hash each
# offset once.  Ranges wider than half the cache are hashed directly.
_PAGE = 1 << 13
_CACHED_PAGES = 32


def _counter_hashes(start: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return mix64((np.arange(start, start + count, dtype=np.uint64) + np.uint64(1)) * _GAMMA)


@functools.lru_cache(maxsize=_CACHED_PAGES)
def _counter_page(page: int) -> np.ndarray:
    hashes = _counter_hashes(page * _PAGE, _PAGE)
    hashes.flags.writeable = False
    return hashes


def _hashed_offsets(start: int, count: int) -> np.ndarray:
    """mix64 of the counters of draws `start .. start+count-1`."""
    first, stop = start // _PAGE, -(-(start + count) // _PAGE)
    if count <= 0 or stop - first > _CACHED_PAGES // 2:
        return _counter_hashes(start, count)
    pages = [_counter_page(p) for p in range(first, stop)]
    table = pages[0] if len(pages) == 1 else np.concatenate(pages)
    return table[start - first * _PAGE:][:count]


def uniforms(key: np.uint64 | np.ndarray, start: int | np.ndarray, count: int) -> np.ndarray:
    """Uniform(0, 1) draws `start .. start+count-1` of the keyed stream.

    `key` may be a scalar (returns shape (count,)) or a (R,) array
    (returns shape (R, count)).  With a (R,) key array, `start` may also be
    a (R,) array: row r then holds draws `start[r] .. start[r]+count-1` of
    stream `key[r]`.  Values lie in (0, 1]: the top draw,
    (2^53 - 1/2) 2^-53, rounds to 1.0 (probability 2^-53 per draw).
    """
    k = np.asarray(key, dtype=np.uint64)
    if np.ndim(start) == 0:
        js = _hashed_offsets(int(start), count)
    else:
        starts = np.asarray(start, dtype=np.int64)
        lo, hi = int(starts.min()), int(starts.max())
        table = _hashed_offsets(lo, hi - lo + count)
        js = table if lo == hi else table[(starts - lo)[:, None] + np.arange(count)]
    if k.ndim == 1:
        k = k[:, None]
    h = mix64(k ^ js)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    return u
