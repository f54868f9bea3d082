"""Deterministic counter-based uniform streams.

Every random quantity in this package is a pure function of a 64-bit key
and a draw index, built from the splitmix64 finalizer.  This keeps results
bit-identical across runs, platforms and thread counts, and lets any draw
be recomputed in isolation (no generator state to replay).
"""

from __future__ import annotations

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
        z = (x ^ (x >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


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


def uniforms(key: np.uint64 | np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniform(0, 1) draws `start .. start+count-1` of the keyed stream.

    `key` may be a scalar (returns shape (count,)) or a (R,) array
    (returns shape (R, count)).  Values lie in (0, 1]: the top draw,
    (2^53 - 1/2) 2^-53, rounds to 1.0 (probability 2^-53 per draw).
    """
    with np.errstate(over="ignore"):
        js = (np.arange(start, start + count, dtype=np.uint64) + np.uint64(1)) * _GAMMA
        k = np.asarray(key, dtype=np.uint64)
        if k.ndim == 0:
            h = mix64(k ^ mix64(js))
        else:
            h = mix64(k[:, None] ^ mix64(js)[None, :])
        return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
