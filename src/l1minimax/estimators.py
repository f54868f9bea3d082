"""Coordinatewise estimators: the empirical distribution and hard thresholding.

Both rules act on each symbol's count independently, which is what lets the
exact-risk machinery decompose the l1 risk into per-coordinate sums.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ThresholdConfig",
    "CoordinatewiseEstimator",
    "empirical_estimator",
    "threshold_estimator",
    "threshold_level",
    "DEFAULT_ETA",
]

logger = logging.getLogger(__name__)

# The theory requires eta > 1 and leaves the choice open; mid-range avoids
# both failure modes of the keep/drop trade-off.
DEFAULT_ETA = 1.5


@dataclass(frozen=True)
class ThresholdConfig:
    """Cutoff parameters for the hard-thresholding rule."""

    n: int
    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.eta > 1.0:
            raise ValueError("eta must be strictly greater than 1")


@dataclass(frozen=True)
class CoordinatewiseEstimator:
    """A per-symbol rule k -> estimate, vectorized over count arrays.

    `fn(counts, n)` must be elementwise (shape preserving) and map into
    [0, 1]; that range is what certifies truncation in exact risk sums.
    """

    name: str
    fn: Callable[[np.ndarray, int], np.ndarray] = field(repr=False)

    def __call__(self, counts, n: int) -> np.ndarray:
        return self.fn(np.asarray(counts), n)


def empirical_estimator() -> CoordinatewiseEstimator:
    """Rule k -> k / n: the empirical distribution (MLE)."""
    return CoordinatewiseEstimator("empirical", lambda counts, n: counts / n)


def threshold_level(cfg: ThresholdConfig) -> float:
    """The keep/drop cutoff e^2 (ln n)^(2 eta) / n on estimated frequencies;
    requires n >= 2 so the log is positive."""
    if cfg.n < 2:
        raise ValueError(f"threshold level needs n >= 2 (ln n must be positive), got n={cfg.n}")
    return math.exp(2.0) * (math.log(cfg.n) ** (2.0 * cfg.eta) / cfg.n)


def threshold_estimator(cfg: ThresholdConfig) -> CoordinatewiseEstimator:
    """Rule k -> (k/n) if k/n strictly exceeds the cutoff, else 0; the cutoff
    depends on n, so calling the rule at any n other than cfg.n raises."""
    cut = threshold_level(cfg)
    if cut >= 1.0:
        # Degenerate small-n regime: every frequency is zeroed.  Permitted
        # on purpose; the caller should see what finite n actually does.
        logger.warning(
            "threshold level %.6g >= 1 at n=%d, eta=%g: estimator returns 0 everywhere",
            cut, cfg.n, cfg.eta,
        )

    def fn(counts: np.ndarray, n: int) -> np.ndarray:
        if n != cfg.n:
            raise ValueError(f"config n={cfg.n} does not match sample size n={n}")
        freq = counts / n
        return np.where(freq > cut, freq, 0.0)

    return CoordinatewiseEstimator(f"threshold(eta={cfg.eta:g})", fn)

