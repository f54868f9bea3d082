"""Worst-case families, unfavorable priors, and exact Bayes-risk oracles.

The two constructions are a near-flat family of many tiny equal atoms plus
one heavy atom (hitting a target entropy), and a two-point product prior
under Poissonized sampling.  Their Bayes risks admit exact evaluation and
serve as oracles for the closed-form lower bounds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (BoundValue, _check_high_dim, bayes_risk_two_point_piecewise,
                     hoeffding_bound)
from .core import CompressedFamily
from .exact import poisson_tv_exact
from .rng import MAX_INDEX_RANGE, stream_key, to_index, uniforms

__all__ = [
    "EntropyBallFamily",
    "CompositePrior",
    "EntropyBallBayesRisk",
    "entropy_ball_family",
    "bayes_risk_two_point",
    "assembled_minimax_lower_hd",
    "bayes_risk_entropy_ball",
    "bayes_risk_entropy_ball_constrained",
    "sample_from_composite_prior",
]

logger = logging.getLogger(__name__)

# exp() overflows past ~709; larger families would need atom values below
# the double-precision range anyway.
_MAX_LOG_SUPPORT = 700.0
_MAX_SAMPLED_ACTIVE = 10_000_000


@dataclass(frozen=True)
class EntropyBallFamily:
    """S' tiny atoms of mass delta/S' plus one heavy atom of mass 1 - delta."""

    delta: float
    S_prime: int
    family: CompressedFamily


def entropy_ball_family(H: float, delta: float) -> EntropyBallFamily:
    """Solve delta ln S' - delta ln delta - (1-delta) ln(1-delta) = H for S'.

    S' is rounded up to an integer; rounding can only increase the entropy,
    and the excess is logged.
    """
    if not H > 0:
        raise ValueError("H must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    log_sp = math.log(delta) + H / delta + (1.0 - delta) / delta * math.log1p(-delta)
    if log_sp < 0.0:
        raise ValueError(
            f"infeasible: delta={delta:g} too large for H={H:g} (S' would be below 1)")
    if log_sp > _MAX_LOG_SUPPORT:
        raise ValueError(
            f"family support exp({log_sp:.1f}) exceeds double-precision range")
    sp_real = math.exp(log_sp)
    sp = math.ceil(sp_real)
    achieved = (delta * math.log(sp) - delta * math.log(delta)
                - (1.0 - delta) * math.log1p(-delta))
    logger.debug("entropy ball H=%g delta=%g: S'=%d (real %.6g), entropy excess %.3e",
                 H, delta, sp, sp_real, achieved - H)
    family = CompressedFamily(((delta / sp, sp), (1.0 - delta, 1)))
    return EntropyBallFamily(delta, sp, family)


def bayes_risk_two_point(S: int, n: float) -> float:
    """Poissonized Bayes-risk lower bound eta (1 - TV) of the product prior
    putting each coordinate at (1 +- eta)/S equally, with exact Poisson TV.

    eta is the risk-maximizing perturbation min{1, sqrt(eS/n)/4}.  `n` may be
    fractional: under Poissonization it enters only through the rates
    n(1 +- eta)/S.  Dominates the piecewise closed form, which replaces the
    exact TV by its analytic upper bound.
    """
    if S < 2:
        raise ValueError("S must be at least 2")
    if not n >= 1:
        raise ValueError("n must be at least 1")
    eta = min(1.0, 0.25 * math.sqrt(math.e * S / n))
    tv = poisson_tv_exact(n * (1.0 - eta) / S, n * (1.0 + eta) / S)
    return eta * (1.0 - tv)


def assembled_minimax_lower_hd(S: int, n: int, zeta: float) -> BoundValue:
    """High-dimensional lower bound assembled from its proof ingredients.

    Exact two-point Bayes risk at inflated sample size (1 + zeta) n, minus
    the Poissonization penalty exp(-zeta^2 n / 24), minus six times the
    concentration mass of the prior outside the approximate simplex.  Uses
    exact quantities where the closed-form statement uses bounds, so it
    dominates `bounds.minimax_lower_hd` whenever both are meaningful.
    """
    _check_high_dim(S, n, zeta)
    if S < 3:
        raise ValueError("S must be at least 3 (needs ln S > 1)")
    bayes = bayes_risk_two_point(S, (1.0 + zeta) * n)
    escape_mass = hoeffding_bound(S, 2.0 / S, zeta / (4.0 * math.log(S)))
    value = bayes - math.exp(-zeta * zeta * n / 24.0) - 6.0 * escape_mass
    return BoundValue(value, vacuous=value <= 0.0)


def _occupied_fraction(q: float, n: int) -> float:
    """1 - (1 - q)^n: chance that a slot of mass q is hit in n draws."""
    return -math.expm1(n * math.log1p(-q)) if q < 1.0 else 1.0


@dataclass(frozen=True)
class CompositePrior:
    """Uniform prior over vectors with S' active slots among k S' candidates.

    Each member puts delta/S' on its active slots and 1 - delta on a fixed
    final coordinate; all members share the same entropy.
    """

    delta: float
    S_prime: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.S_prime < 1:
            raise ValueError("S_prime must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    @classmethod
    def from_family(cls, fam: EntropyBallFamily, k: int) -> "CompositePrior":
        return cls(fam.delta, fam.S_prime, k)


class EntropyBallBayesRisk(NamedTuple):
    """Bayes risk (1 - E N / S') delta in exact and linearized forms.

    `linearized` replaces the expected occupancy E N by its cap n * delta,
    which can only shrink the value (to zero or below once n delta >= S').
    """

    exact: float
    linearized: float


def bayes_risk_entropy_ball(cp: CompositePrior, n: int) -> EntropyBallBayesRisk:
    """Exact Bayes risk of the composite prior under Multinomial sampling."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    exact = (1.0 - _occupied_fraction(cp.delta / cp.S_prime, n)) * cp.delta
    linearized = (1.0 - n * cp.delta / cp.S_prime) * cp.delta
    return EntropyBallBayesRisk(exact, linearized)


def bayes_risk_entropy_ball_constrained(cp: CompositePrior, n: int) -> float:
    """Bayes risk when estimates must stay on the simplex: the 2(k-1)/k floor."""
    return 2.0 * (cp.k - 1) / cp.k * bayes_risk_entropy_ball(cp, n).exact


def sample_from_composite_prior(cp: CompositePrior, seed: int) -> tuple:
    """Sorted active slots of one member: a uniformly random size-S' subset
    of the k S' slots, deterministic in seed.

    Floyd's subset sampling, in O(S') work and memory: step i, from k S' - S'
    up, takes the slot j in [0, i] that `rng.to_index` maps its draw to, or i.
    """
    population = cp.k * cp.S_prime
    if population > MAX_INDEX_RANGE:
        raise ValueError("slot population too large to index exactly")
    if cp.S_prime > _MAX_SAMPLED_ACTIVE:
        raise ValueError("S_prime too large to sample at desk scale")
    first = population - cp.S_prime
    slots = to_index(uniforms(stream_key(seed), 0, cp.S_prime), np.arange(first, population) + 1)
    chosen = set()
    for i, j in zip(range(first, population), slots.astype(np.int64).tolist()):
        chosen.add(i if j in chosen else j)
    return tuple(sorted(chosen))
