"""Core vector types and functionals for discrete distributions.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "ProbabilityVector",
    "CompressedFamily",
    "entropy",
]

# Construction absorbs float noise up to this deviation from sum 1 by
# renormalizing; anything larger is treated as a caller bug.
NORMALIZE_TOL = 1e-9
SUM_TOL = 1e-12

# Largest support `sample_multinomial` returns per-symbol counts for.
MAX_DENSE_SUPPORT = 10_000_000


def _as_float_array(values: Iterable[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{what} must be nonnegative")
    return arr


@dataclass(frozen=True)
class ProbabilityVector:
    """Finite nonnegative vector summing to 1; zeros are allowed entries."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.probs, "probs")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > NORMALIZE_TOL:
            raise ValueError(f"probs sum to {total!r}, too far from 1 to normalize")
        if total != 1.0:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(support_size: int) -> "ProbabilityVector":
        if support_size < 1:
            raise ValueError("support_size must be positive")
        return ProbabilityVector(np.full(support_size, 1.0 / support_size))

    def __len__(self) -> int:
        return self.support_size


@dataclass(frozen=True)
class CompressedFamily:
    """Distribution stored as (probability value, multiplicity) atoms.

    Canonical representation for families whose support shares a handful of
    distinct probabilities; exact risk then costs constant work per atom
    regardless of multiplicity.  Multiplicities may exceed float precision.
    """

    atoms: tuple

    def __post_init__(self):
        cleaned = []
        total = []
        for i, atom in enumerate(self.atoms):
            try:
                value, mult = atom
            except (TypeError, ValueError):
                raise ValueError(f"atom {i} must be a (value, multiplicity) pair")
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"atom {i}: value must be finite and nonnegative")
            if mult != int(mult) or int(mult) < 1:
                raise ValueError(f"atom {i}: multiplicity must be a positive integer")
            mult = int(mult)
            cleaned.append((value, mult))
            total.append(value * mult)
        if not cleaned:
            raise ValueError("atoms must be non-empty")
        mass = math.fsum(total)
        if abs(mass - 1.0) > NORMALIZE_TOL:
            raise ValueError(f"atom mass sums to {mass!r}, too far from 1 to normalize")
        if abs(mass - 1.0) > SUM_TOL:
            cleaned = [(v / mass, m) for v, m in cleaned]
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def support_size(self) -> int:
        return sum(m for _, m in self.atoms)


Distribution = Union[ProbabilityVector, CompressedFamily]


def _atom_items(p: Distribution) -> tuple:
    """(value, multiplicity) atoms of p in support order; a vector is the atoms (p_i, 1)."""
    if isinstance(p, CompressedFamily):
        return p.atoms
    if isinstance(p, ProbabilityVector):
        return tuple((v, 1) for v in p.probs.tolist())
    raise TypeError(f"expected ProbabilityVector or CompressedFamily, got {type(p).__name__}")


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with the 0 * ln 0 = 0 convention.

    Summed with math.fsum so that families of many near-equal tiny terms
    (compressed multiplicities around 1e5) lose nothing to cancellation.
    """
    terms = []
    for value, mult in _atom_items(p):
        if value > 0.0:
            terms.append(-mult * value * math.log(value))
    result = math.fsum(terms)
    # fsum noise can leave a -1e-17 residue for point masses
    return max(result, 0.0)

