"""Closed-form minimax upper and lower bound evaluators.

Pure real-valued functions of their parameters.  Bounds that have a
meaningful regime carry an explicit vacuous flag instead of being clamped:
a vacuous lower bound keeps its (nonpositive) value, a vacuous upper bound
reports +inf, so downstream comparisons stay honest either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "BoundValue",
    "ChernoffTails",
    "mle_upper_simple",
    "mle_upper_tight",
    "classical_constant",
    "bayes_risk_two_point_piecewise",
    "minimax_lower_hd",
    "mle_entropy_upper",
    "mle_entropy_lower",
    "threshold_upper",
    "minimax_entropy_lower",
    "simplex_lower",
    "adell_jodra_tv_bound",
    "chernoff_tails",
    "hoeffding_bound",
]


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation together with its validity flag."""

    value: float
    vacuous: bool = False

    def __float__(self) -> float:
        return self.value


def _check_high_dim(S: int, n: int, zeta: float) -> None:
    """Raises unless (S, n, zeta) is in the high-dimensional bounds' domain;
    called before any arithmetic, since ln S is 0 at S = 1."""
    if S < 2:
        raise ValueError("S must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < zeta <= 1.0):
        raise ValueError("zeta must lie in (0, 1]")


def mle_upper_simple(S: int, n: int) -> float:
    """sqrt((S - 1) / n), the baseline worst-case risk of the empirical rule."""
    if S < 1 or n < 1:
        raise ValueError("S and n must be positive")
    return math.sqrt((S - 1) / n)


def mle_upper_tight(S: int, n: int) -> float:
    """sqrt(2(S-1)/(pi n)) + 2 sqrt(S) (S-1)^(1/4) / n^(3/4)."""
    if S < 1 or n < 1:
        raise ValueError("S and n must be positive")
    return (math.sqrt(2.0 * (S - 1) / (math.pi * n))
            + 2.0 * math.sqrt(S) * (S - 1) ** 0.25 / n ** 0.75)


def classical_constant(S: int) -> float:
    """sqrt(2(S-1)/pi): the fixed-support limit of sqrt(n) times the risk."""
    if S < 2:
        raise ValueError("S must be at least 2")
    return math.sqrt(2.0 * (S - 1) / math.pi)


def bayes_risk_two_point_piecewise(S: int, n: float) -> float:
    """Closed-form floor for the two-point Bayes risk at the tuned eta."""
    if S < 2 or n < 1:
        raise ValueError("need S >= 2 and n >= 1")
    if n / S <= math.e / 16.0:
        return math.exp(-2.0 * n / S)
    return 0.125 * math.sqrt(math.e * S / n)


def minimax_lower_hd(S: int, n: int, zeta: float) -> BoundValue:
    """Non-asymptotic high-dimensional minimax lower bound.

    The two-point Bayes floor at (1+zeta) n, less two penalty terms for the
    Poissonization and concentration losses.  May be negative (vacuous) at
    small S; returned as-is with the flag.
    """
    _check_high_dim(S, n, zeta)
    value = (bayes_risk_two_point_piecewise(S, (1.0 + zeta) * n)
             - math.exp(-zeta * zeta * n / 24.0)
             - 12.0 * math.exp(-zeta * zeta * S / (32.0 * math.log(S) ** 2)))
    return BoundValue(value, vacuous=value <= 0.0)


def _ln_ln(n: int) -> float:
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.log(math.log(n))


def mle_entropy_upper(H: float, n: int, eta: float) -> BoundValue:
    """2H / (ln n - 2 eta ln ln n) + (ln n)^(-eta) over the entropy ball.

    Vacuous (reported as +inf) when the denominator is nonpositive.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    if not eta > 1.0:
        raise ValueError("eta must exceed 1")
    denom = math.log(n) - 2.0 * eta * _ln_ln(n)
    if denom <= 0.0:
        return BoundValue(math.inf, vacuous=True)
    return BoundValue(2.0 * H / denom + math.log(n) ** (-eta))


def mle_entropy_lower(H: float, n: int, c: float) -> float:
    """(2cH / ln n) (1 - ((1-c) n)^(-1/c))^n, the hard-family risk floor.

    Requires n > max{(1-c)^(-1/(1-c)), e^H}; violations raise naming the
    failed condition.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if not H > 0:
        raise ValueError("H must be positive")
    n_min = math.exp(-math.log1p(-c) / (1.0 - c))
    if not n > n_min:
        raise ValueError(f"requires n > (1-c)^(-1/(1-c)) = {n_min:.6g}, got n={n}")
    if not n > math.exp(H):
        raise ValueError(f"requires n > e^H = {math.exp(H):.6g}, got n={n}")
    inner = math.exp(-math.log((1.0 - c) * n) / c)
    return 2.0 * c * H / math.log(n) * math.exp(n * math.log1p(-inner))


def threshold_upper(H: float, n: int, eta: float) -> BoundValue:
    """H/(ln n - ln(2e^2) - 2 eta ln ln n) + (ln n)^(-eta) + n^(1 - e^2/4).

    Worst-case risk of the hard-thresholding rule over the entropy ball;
    vacuous (+inf) when the denominator is nonpositive.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    if not eta > 1.0:
        raise ValueError("eta must exceed 1")
    denom = math.log(n) - math.log(2.0 * math.e * math.e) - 2.0 * eta * _ln_ln(n)
    if denom <= 0.0:
        return BoundValue(math.inf, vacuous=True)
    value = (H / denom + math.log(n) ** (-eta)
             + math.exp((1.0 - math.e * math.e / 4.0) * math.log(n)))
    return BoundValue(value)


def _entropy_ball_lower_core(H: float, n: int, c: float) -> float:
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if not H > 0:
        raise ValueError("H must be positive")
    if not n >= math.exp(H):
        raise ValueError(f"requires n >= e^H = {math.exp(H):.6g}, got n={n}")
    # n^(1 - 1/c) (1-c)^(-1/c), assembled in logs to dodge overflow
    inner = math.exp((1.0 - 1.0 / c) * math.log(n) - math.log1p(-c) / c)
    return c * H / math.log(n) * (1.0 - inner)


def minimax_entropy_lower(H: float, n: int, c: float) -> BoundValue:
    """(cH / ln n) (1 - n^(1-1/c) (1-c)^(-1/c)): entropy-ball minimax floor."""
    value = _entropy_ball_lower_core(H, n, c)
    return BoundValue(value, vacuous=value <= 0.0)


def simplex_lower(H: float, n: int, c: float) -> BoundValue:
    """Twice the unconstrained floor: the price of simplex-valued estimates."""
    value = 2.0 * _entropy_ball_lower_core(H, n, c)
    return BoundValue(value, vacuous=value <= 0.0)


def adell_jodra_tv_bound(t: float, x: float) -> float:
    """min{1 - e^(-x), sqrt(2/e) (sqrt(t+x) - sqrt(t))} for Poisson rates t, t+x."""
    if t < 0 or x < 0:
        raise ValueError("t and x must be nonnegative")
    first = -math.expm1(-x)
    if x == 0.0:
        return 0.0
    # sqrt(t+x) - sqrt(t) via the conjugate form to avoid cancellation
    second = math.sqrt(2.0 / math.e) * x / (math.sqrt(t + x) + math.sqrt(t))
    return min(first, second)


class ChernoffTails(NamedTuple):
    upper_tail: float
    lower_tail: float


def chernoff_tails(lam: float, delta: float) -> ChernoffTails:
    """Multiplicative Chernoff bounds for Poisson(lam) (or Binomial(n, lam/n)).

    upper_tail bounds P(X >= (1+delta) lam); lower_tail bounds
    P(X <= (1-delta) lam) by exp(-delta^2 lam / 2).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    upper = math.exp(lam * (delta - (1.0 + delta) * math.log1p(delta)))
    lower = math.exp(-delta * delta * lam / 2.0)
    return ChernoffTails(upper, lower)


def hoeffding_bound(n: int, range_width: float, t: float) -> float:
    """2 exp(-2 t^2 / (n w^2)) for a sum of n iid terms of range w, capped at 1."""
    if n < 1 or range_width <= 0 or t <= 0:
        raise ValueError("n, range_width and t must be positive")
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / (n * range_width * range_width)))


class ReportedBound(NamedTuple):
    """A bound the reports carry: its grid parameters in call order, whether
    it returns a `BoundValue` (and so has a vacuous column), and its value."""

    params: tuple
    flagged: bool
    evaluate: Callable


# Every bound a report row carries, by column.  Entries call their function by
# its module-level name, so a patched attribute (a profiler's wrapper) runs.
REPORTED_BOUNDS = {
    "classical_constant": ReportedBound(("S",), False, lambda S: classical_constant(S)),
    "minimax_entropy_lower": ReportedBound(
        ("H", "n", "c"), True, lambda H, n, c: minimax_entropy_lower(H, n, c)),
    "minimax_lower_hd": ReportedBound(
        ("S", "n", "zeta"), True,
        lambda S, n, zeta: minimax_lower_hd(S, n, zeta)),
    "mle_entropy_lower": ReportedBound(
        ("H", "n", "c"), False, lambda H, n, c: mle_entropy_lower(H, n, c)),
    "mle_entropy_upper": ReportedBound(
        ("H", "n", "eta"), True, lambda H, n, eta: mle_entropy_upper(H, n, eta)),
    "mle_upper_simple": ReportedBound(("S", "n"), False, lambda S, n: mle_upper_simple(S, n)),
    "mle_upper_tight": ReportedBound(("S", "n"), False, lambda S, n: mle_upper_tight(S, n)),
    "simplex_lower": ReportedBound(
        ("H", "n", "c"), True, lambda H, n, c: simplex_lower(H, n, c)),
    "threshold_upper": ReportedBound(
        ("H", "n", "eta"), True, lambda H, n, eta: threshold_upper(H, n, eta)),
}
