"""Coordinatewise estimators: the empirical distribution and hard thresholding.

Both rules act on each symbol's count independently, which is what lets the
exact-risk machinery decompose the l1 risk into per-coordinate sums.  Both
are one `ThresholdRule` k -> (k/n if k/n > cut else 0), the empirical one
with cut 0; the rule evaluates on count arrays and, for exact risks without
numpy, count by count (`ThresholdRule.losses`).
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .bounds import _check_eta
from .core import _Checked, _sample_size

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThresholdConfig",
    "ThresholdRule",
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


class ThresholdConfig(_Checked, NamedTuple("ThresholdConfig", [("n", int), ("eta", float)])):
    """Cutoff parameters for the hard-thresholding rule."""

    __slots__ = ()

    def __new__(cls, n, eta=DEFAULT_ETA):
        return super().__new__(cls, _sample_size(n, 63), _check_eta(eta))


class ThresholdRule(NamedTuple):
    """The rule k -> (k/n if k/n > cut else 0.0) on counts k >= 0; given an
    `n`, it holds at that sample size alone and raises at any other."""

    cut: float
    n: Optional[int] = None

    def _check(self, n: int) -> None:
        if self.n is not None and n != self.n:
            raise ValueError(f"config n={self.n} does not match sample size n={n}")

    def __call__(self, counts: np.ndarray, n: int) -> np.ndarray:
        self._check(n)
        freq = counts / n
        if self.cut <= 0.0:  # every frequency is >= 0: kept, or 0 already
            return freq
        import numpy as np

        return np.where(freq > self.cut, freq, 0.0)

    def losses(self, counts: range, n: int, value: float) -> list:
        """|rule(k) - value| for each count k, without numpy; the same bits
        as the rule on an array of the counts."""
        self._check(n)
        nf, cut = float(n), self.cut
        return [abs((f if (f := k / nf) > cut else 0.0) - value) for k in counts]


class CoordinatewiseEstimator(NamedTuple):
    """A per-symbol rule k -> estimate, vectorized over count arrays.

    `fn(counts, n)` must be elementwise (shape preserving) and map into
    [0, 1]; that range is what certifies truncation in exact risk sums.
    An `fn` that is a `ThresholdRule` also evaluates count by count, so
    exact risks need no numpy; any other `fn` takes arrays.
    """

    name: str
    fn: Callable[[np.ndarray, int], np.ndarray]

    def __repr__(self) -> str:  # fn stays out: a closure's repr is an address
        return f"{type(self).__name__}(name={self.name!r})"

    def __call__(self, counts, n: int) -> np.ndarray:
        import numpy as np

        return self.fn(np.asarray(counts), n)


def empirical_estimator() -> CoordinatewiseEstimator:
    """Rule k -> k / n: the empirical distribution (MLE), the threshold
    rule with cut 0 (k / n is 0 only at k = 0)."""
    return CoordinatewiseEstimator("empirical", ThresholdRule(0.0))


def threshold_level(cfg: ThresholdConfig) -> float:
    """The keep/drop cutoff e^2 (ln n)^(2 eta) / n on estimated frequencies;
    requires n >= 2 so the log is positive.  Past the float range it is
    inf: the rule then zeroes every frequency."""
    if cfg.n < 2:
        raise ValueError(f"threshold level needs n >= 2 (ln n must be positive), got n={cfg.n}")
    try:
        power = math.log(cfg.n) ** (2.0 * cfg.eta)
    except OverflowError:  # (ln n)^(2 eta) past the float range
        return math.inf
    return math.exp(2.0) * (power / cfg.n)


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
    return CoordinatewiseEstimator(f"threshold(eta={cfg.eta:g})", ThresholdRule(cut, cfg.n))
