"""Core vector types and functionals for discrete distributions.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

if TYPE_CHECKING:
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
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{what} must be nonnegative")
    return arr


def _whole(value, message: str, least: int = 1) -> int:
    """int(value) for a whole number of at least `least`, integral floats and
    numpy integers included; anything else, inf, NaN and an int past the float
    range too, raises ValueError(message).  Every size the package takes
    passes through here."""
    if not least <= value <= sys.float_info.max or value != int(value):
        raise ValueError(message)
    return int(value)


def _mass(values: list, what: str) -> float:
    """math.fsum of `values`; raises unless it lies within NORMALIZE_TOL of 1."""
    try:
        mass = math.fsum(values)
    except OverflowError:  # partial sums past the float range: far from 1
        mass = math.inf
    if abs(mass - 1.0) > NORMALIZE_TOL:
        raise ValueError(f"{what} to {mass!r}, too far from 1 to normalize")
    return mass


class ProbabilityVector(NamedTuple("ProbabilityVector", [("probs", "np.ndarray")])):
    """Finite nonnegative vector summing to 1; zeros are allowed entries."""

    __slots__ = ()

    def __new__(cls, probs):
        arr = _as_float_array(probs, "probs")
        total = _mass(arr.tolist(), "probs sum")
        if total != 1.0:
            arr = arr / total
        arr.setflags(write=False)
        return super().__new__(cls, arr)

    @staticmethod
    def uniform(support_size: int) -> "ProbabilityVector":
        import numpy as np

        support_size = _whole(support_size, "support_size must be a positive integer")
        return ProbabilityVector(np.full(support_size, 1.0 / support_size))


class CompressedFamily(NamedTuple("CompressedFamily", [("atoms", tuple)])):
    """Distribution stored as (probability value, multiplicity) atoms.

    Canonical representation for families whose support shares a handful of
    distinct probabilities; exact risk then costs constant work per atom
    regardless of multiplicity.  Multiplicities may exceed float precision.
    """

    __slots__ = ()

    def __new__(cls, atoms):
        cleaned = []
        total = []
        for i, atom in enumerate(atoms):
            try:
                value, mult = atom
            except (TypeError, ValueError):
                raise ValueError(f"atom {i} must be a (value, multiplicity) pair")
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"atom {i}: value must be finite and nonnegative")
            mult = _whole(mult, f"atom {i}: multiplicity must be a positive integer")
            cleaned.append((value, mult))
            total.append(value * mult)
        if not cleaned:
            raise ValueError("atoms must be non-empty")
        mass = _mass(total, "atom mass sums")
        if abs(mass - 1.0) > SUM_TOL:
            cleaned = [(v / mass, m) for v, m in cleaned]
        return super().__new__(cls, tuple(cleaned))


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

