"""Deterministic counter-based uniform streams.

Every random quantity in this package is a pure function of a 64-bit key
and a draw index, built from the splitmix64 finalizer.  This keeps results
bit-identical across runs, platforms and thread counts, and lets any draw
be recomputed in isolation (no generator state to replay).  Draw j of key k
is mix64(k ^ h_j), where the counter hash h_j of draw j is shared by every
stream and, for j below _TABLE_CAP, read from one table.
"""

from __future__ import annotations

import numpy as np

from .core import _whole

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)

# The range of `uniforms` (a zero hash draws 2^-54, the largest rounds up to
# 1.0), and the largest range `to_index` maps into exactly.
UNIFORM_MIN = 0.5 * _INV_2_53
UNIFORM_MAX = 1.0
MAX_INDEX_RANGE = 1 << 53


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


def _seed(value, name: str = "seed") -> int:
    """int(value) for a whole number in [0, 2^64), the one rule for every seed
    and replicate index; anything else raises ValueError naming `name`."""
    return _whole(value, f"{name} must be an integer in [0, 2^64), got {value}", 0, 2**64 - 1)


def stream_key(seed: int) -> np.uint64:
    """Map a user-facing integer seed in [0, 2^64) to an internal stream key."""
    return mix64(np.uint64(_seed(seed)))


def _seed_hash(master_seed: int, index) -> np.uint64 | np.ndarray:
    """splitmix64 output `index` of the generator seeded with `master_seed` in [0, 2^64)."""
    with np.errstate(over="ignore"):
        base = np.uint64(_seed(master_seed, "master_seed"))
        idx = np.asarray(index, dtype=np.uint64)
        return mix64(base + (idx + np.uint64(1)) * _GAMMA)


def derive_key(master_seed: int, index: int | np.ndarray) -> np.uint64 | np.ndarray:
    """Counter-hash of (master_seed, index); the splitmix64 stream at `index`.

    `derive_key(m, r)` equals `stream_key(derive_seed(m, r))` so that a
    sub-stream can be reproduced in isolation from its derived seed.
    """
    return mix64(_seed_hash(master_seed, index))


def derive_seed(master_seed: int, index: int) -> int:
    """Per-index seed as a plain integer, usable wherever a seed is accepted."""
    return int(_seed_hash(master_seed, index))


# The table holds h_j for j < len(_table).  A range past its end replaces it
# by one at least twice as long, never writing it in place, so slices handed
# out before stay valid, also in other threads.  Ranges past _TABLE_CAP are
# hashed directly: the table never takes more than 2 MB.
_TABLE_CAP = 1 << 18
_table = np.empty(0, dtype=np.uint64)


def _hashed_offsets(start: int, count: int) -> np.ndarray:
    """mix64 of the counters of draws `start .. start+count-1`."""
    global _table
    stop = start + count
    if stop > _TABLE_CAP:
        return _seed_hash(0, np.arange(start, stop, dtype=np.uint64))
    table = _table
    if stop > len(table):
        size = min(max(2 * len(table), 1 << (stop - 1).bit_length()), _TABLE_CAP)
        table = _seed_hash(0, np.arange(size, dtype=np.uint64))
        table.flags.writeable = False
        _table = table
    return table[start:stop]


def uniforms(key: np.uint64 | np.ndarray, start: int | np.ndarray, count: int) -> np.ndarray:
    """Uniform(0, 1) draws `start .. start+count-1` of the keyed stream.

    `key` may be a scalar (returns shape (count,)) or a (R,) array
    (returns shape (R, count)).  With a (R,) key array, `start` may also be
    a (R,) array: row r then holds draws `start[r] .. start[r]+count-1` of
    stream `key[r]`.  Values lie in [UNIFORM_MIN, UNIFORM_MAX]: the
    top draw, (2^53 - 1/2) 2^-53, rounds to 1.0 (probability 2^-53 per draw).
    """
    k = np.asarray(key, dtype=np.uint64)[..., None]  # a (R,) key: one row per stream
    starts = np.asarray(start, dtype=np.int64)
    lo, hi = int(starts.min()), int(starts.max())
    js = _hashed_offsets(lo, hi - lo + count)
    if lo != hi:
        js = js[(starts - lo)[:, None] + np.arange(count)]
    h = mix64(k ^ js)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    return u


def to_index(u: np.ndarray, m) -> np.ndarray:
    """Index min(floor(u m), m - 1) in [0, m) of each uniform u, in place.

    The one rule from a uniform to an index: exact, as a float, for an int or
    int array m up to MAX_INDEX_RANGE; the top draw lands in m - 1.
    """
    u *= m
    np.floor(u, out=u)
    np.minimum(u, m - 1, out=u)
    return u
