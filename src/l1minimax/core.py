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

# Largest dense support: of `sample_multinomial`'s counts and `ProbabilityVector.uniform`.
MAX_DENSE_SUPPORT = 10_000_000


def _as_float_array(values: Iterable[float], what: str) -> np.ndarray:
    import numpy as np

    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} must be finite") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{what} must be nonnegative")
    return arr


def _whole(value, message: str, least: int = 1, most=sys.float_info.max) -> int:
    """int(value) for a whole number in [least, most], integral floats and
    numpy integers included; anything else, inf, NaN and an int past the float
    range too, raises ValueError(message).  The int is compared as well, as a
    numpy float rounds `most`.  Every size and seed passes through here."""
    if not (least <= value <= most and value == int(value) <= most):
        raise ValueError(message)
    return int(value)


def _sample_size(n, bits: int = 50) -> int:
    """int(n) for a whole n in [1, 2^bits): 50 for a draw, as boost's Binomial
    quantile, which defines every draw, is NaN at means n q >= 3 2^50; 63 for
    an exact sum and its `ThresholdConfig`, whose counts are int64."""
    return _whole(n, f"n must be a positive integer below 2^{bits}, got n={n}", 1, 2**bits - 1)


def _mass(values: list, what: str) -> float:
    """math.fsum of `values`; raises unless it lies within NORMALIZE_TOL of 1."""
    try:
        mass = math.fsum(values)
    except OverflowError:  # partial sums past the float range: far from 1
        mass = math.inf
    if abs(mass - 1.0) > NORMALIZE_TOL:
        raise ValueError(f"{what} to {mass!r}, too far from 1 to normalize")
    return mass


class _Checked:
    """Base of a checked record: `_make`, and so `_replace`, run its `__new__`."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class ProbabilityVector(_Checked, NamedTuple("ProbabilityVector", [("probs", "np.ndarray")])):
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

        support_size = _whole(support_size, "support_size must be an integer in [1, 10^7]",
                              most=MAX_DENSE_SUPPORT)
        return ProbabilityVector(np.full(support_size, 1.0 / support_size))


class CompressedFamily(_Checked, NamedTuple("CompressedFamily", [("atoms", tuple)])):
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
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"atom {i}: value must be finite and nonnegative")
            value = float(value)
            mult = _whole(mult, f"atom {i}: multiplicity must be a positive integer")
            cleaned.append((value, mult))
            total.append(value * mult)
        if not cleaned:
            raise ValueError("atoms must be non-empty")
        mass = _mass(total, "atom masses (value x multiplicity) sum")
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

