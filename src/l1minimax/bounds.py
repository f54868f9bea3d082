"""Closed-form minimax upper and lower bound evaluators.

Pure real-valued functions of their parameters.  Bounds that have a
meaningful regime carry an explicit vacuous flag instead of being clamped:
a vacuous lower bound keeps its (nonpositive) value, a vacuous upper bound
reports +inf, so downstream comparisons stay honest either way.  Each
parameter's domain is checked in one place, which rejects NaN, +-inf and
a Python int past the float range.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

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


# Domain checks compare with the largest float, not inf: every int is below
# inf, and one past the float range overflows once arithmetic meets it.
_FLOAT_MAX = sys.float_info.max


class BoundValue(NamedTuple):
    """A bound evaluation together with its validity flag."""

    value: float
    vacuous: bool = False


def _check_sizes(S, n=1, least_S: int = 2) -> tuple:
    """(S, n) for finite S >= `least_S` and n >= 1 (n = 1 where a bound has none): a
    Python int kept exact, anything else (numpy scalars too) as a float."""
    if not least_S <= S <= _FLOAT_MAX:
        raise ValueError(f"S must be at least {least_S} and finite, got S={S}")
    if not 1 <= n <= _FLOAT_MAX:
        raise ValueError(f"n must be at least 1 and finite, got n={n}")
    return tuple(v if isinstance(v, int) else float(v) for v in (S, n))


def _check_high_dim(S: int, n: int, zeta: float) -> tuple:
    """S, n and zeta as floats; raises unless they are in the high-dimensional
    bounds' domain.  Called before any arithmetic, since ln S is 0 at S = 1."""
    S, n = _check_sizes(S, n)
    if not (0.0 < zeta <= 1.0):
        raise ValueError("zeta must lie in (0, 1]")
    if (1.0 + float(zeta)) * n > _FLOAT_MAX:  # the two-point floor's sample size
        raise ValueError(f"(1 + zeta) n must be finite, got n={n}, zeta={zeta}")
    return S, n, float(zeta)


def mle_upper_simple(S: int, n: int) -> float:
    """sqrt((S - 1) / n), the baseline worst-case risk of the empirical rule."""
    S, n = _check_sizes(S, n, least_S=1)
    return math.sqrt((S - 1) / n)


def _gaussian_mad(S, n) -> float:
    """sqrt(2(S-1)/(pi n)), split as sqrt(2/pi) sqrt((S-1)/n) only where
    2(S-1) or pi n leaves the float range, so in-range values keep their bits."""
    value = math.sqrt(2.0 * (S - 1) / (math.pi * n))
    if not 0.0 < value < math.inf:  # inf, NaN, or 0 from an infinite pi n
        value = math.sqrt(2.0 / math.pi) * math.sqrt((S - 1) / n)
    return value


def mle_upper_tight(S: int, n: int) -> float:
    """sqrt(2(S-1)/(pi n)) + 2 sqrt(S) (S-1)^(1/4) / n^(3/4)."""
    S, n = _check_sizes(S, n, least_S=1)
    return _gaussian_mad(S, n) + 2.0 * math.sqrt(S) * (S - 1) ** 0.25 / n ** 0.75


def classical_constant(S: int) -> float:
    """sqrt(2(S-1)/pi): the fixed-support limit of sqrt(n) times the risk."""
    return _gaussian_mad(_check_sizes(S)[0], 1)


def bayes_risk_two_point_piecewise(S: int, n: float) -> float:
    """Closed-form floor for the two-point Bayes risk at the tuned eta."""
    S, n = _check_sizes(S, n)
    if n / S <= math.e / 16.0:
        return math.exp(-2.0 * n / S)
    value = 0.125 * math.sqrt(math.e * S / n)
    if value == math.inf:  # e S past the float range; S / n < 16 / e here
        value = 0.125 * math.sqrt(math.e * (S / n))
    return value


def minimax_lower_hd(S: int, n: int, zeta: float) -> BoundValue:
    """Non-asymptotic high-dimensional minimax lower bound.

    The two-point Bayes floor at (1+zeta) n, less two penalty terms for the
    Poissonization and concentration losses.  May be negative (vacuous) at
    small S; returned as-is with the flag.
    """
    S, n, zeta = _check_high_dim(S, n, zeta)
    value = (bayes_risk_two_point_piecewise(S, (1.0 + zeta) * n)
             - math.exp(-zeta * zeta * n / 24.0)
             - 12.0 * math.exp(-zeta * zeta * S / (32.0 * math.log(S) ** 2)))
    return BoundValue(value, vacuous=value <= 0.0)


def _ln_ln(n: int) -> float:
    if not 2 <= n <= _FLOAT_MAX:
        raise ValueError(f"n must be finite and at least 2, got n={n}")
    return math.log(math.log(n))


def _check_n_exceeds(n, log_bound: float, condition: str, inclusive: bool = False) -> None:
    """Raises unless n > e^log_bound (n >= e^log_bound if `inclusive`), naming
    `condition`.  Compared in logs, so a bound past the float range rejects n
    instead of overflowing; only there does the message print it as e^x."""
    if not n <= _FLOAT_MAX:
        raise ValueError(f"n must be finite, got n={n}")
    log_n = math.log(n) if n > 0 else -math.inf
    if log_n > log_bound or inclusive and log_n == log_bound:
        return
    try:
        bound = f"{math.exp(log_bound):.6g}"
    except OverflowError:
        bound = f"e^{log_bound:.6g}"
    raise ValueError(f"requires {condition} = {bound}, got n={n}")


def _check_eta(eta) -> float:
    if not 1.0 < eta <= _FLOAT_MAX:
        raise ValueError(f"eta must exceed 1 and be finite, got eta={eta}")
    return float(eta)


def _entropy_ball_upper(H, n, eta, scale: float, shift: float) -> BoundValue:
    """scale H / (ln n - shift - 2 eta ln ln n) + (ln n)^(-eta), or vacuous
    +inf, also where the sum is past the float range."""
    if not 0.0 <= H <= _FLOAT_MAX:
        raise ValueError(f"H must be nonnegative and finite, got H={H}")
    H, eta = float(H), _check_eta(eta)
    ln_ln_n = _ln_ln(n)  # before ln n, so that n <= 0 is named
    denom = math.log(n) - shift - 2.0 * eta * ln_ln_n
    if denom <= 0.0:
        return BoundValue(math.inf, vacuous=True)
    try:
        value = scale * H / denom + math.log(n) ** (-eta)
    except OverflowError:  # (ln n)^(-eta) past the float range: ln n < 1
        value = math.inf
    return BoundValue(value, vacuous=value == math.inf)


def mle_entropy_upper(H: float, n: int, eta: float) -> BoundValue:
    """2H / (ln n - 2 eta ln ln n) + (ln n)^(-eta) over the entropy ball.

    Vacuous (reported as +inf) when the denominator is nonpositive.
    """
    return _entropy_ball_upper(H, n, eta, 2.0, 0.0)


def _check_lower(H: float, c: float) -> tuple:
    if not (0.0 < c < 1.0):
        raise ValueError(f"c must lie in (0, 1), got c={c}")
    if not 0.0 < H <= _FLOAT_MAX:
        raise ValueError(f"H must be positive and finite, got H={H}")
    return float(H), float(c)


def mle_entropy_lower(H: float, n: int, c: float) -> float:
    """(2cH / ln n) (1 - ((1-c) n)^(-1/c))^n, the hard-family risk floor.

    Requires n > max{(1-c)^(-1/(1-c)), e^H}; violations raise naming the
    failed condition.
    """
    H, c = _check_lower(H, c)
    _check_n_exceeds(n, -math.log1p(-c) / (1.0 - c), "n > (1-c)^(-1/(1-c))")
    _check_n_exceeds(n, H, "n > e^H")
    inner = math.exp(-math.log((1.0 - c) * n) / c)
    return 2.0 * c * H / math.log(n) * math.exp(n * math.log1p(-inner))


def threshold_upper(H: float, n: int, eta: float) -> BoundValue:
    """H/(ln n - ln(2e^2) - 2 eta ln ln n) + (ln n)^(-eta) + n^(1 - e^2/4).

    Worst-case risk of the hard-thresholding rule over the entropy ball;
    vacuous (+inf) when the denominator is nonpositive.
    """
    upper = _entropy_ball_upper(H, n, eta, 1.0, math.log(2.0 * math.e * math.e))
    return upper if upper.vacuous else BoundValue(
        upper.value + math.exp((1.0 - math.e * math.e / 4.0) * math.log(n)))


def _entropy_ball_lower_core(H: float, n: int, c: float) -> float:
    H, c = _check_lower(H, c)
    _check_n_exceeds(n, H, "n >= e^H", inclusive=True)
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
    if not (0 <= t <= _FLOAT_MAX and x >= 0):
        raise ValueError("t must be finite, and t and x nonnegative")
    t, x = float(t), math.inf if x > _FLOAT_MAX else float(x)  # an int past floats: inf
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
    if not 0 <= lam <= _FLOAT_MAX:
        raise ValueError("lam must be nonnegative and finite")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    upper = math.exp(lam * (delta - (1.0 + delta) * math.log1p(delta)))
    lower = math.exp(-delta * delta * lam / 2.0)
    return ChernoffTails(upper, lower)


def hoeffding_bound(n: int, range_width: float, t: float) -> float:
    """2 exp(-2 t^2 / (n w^2)) for a sum of n iid terms of range w, capped at 1."""
    if not (1 <= n <= _FLOAT_MAX and range_width > 0 and t >= 0):
        raise ValueError("n must be at least 1 and finite, range_width positive, t nonnegative")
    n, range_width, t = (math.inf if v > _FLOAT_MAX else float(v) for v in (n, range_width, t))
    spread = n * range_width * range_width
    exponent = -2.0 * t * t / spread if spread > 0.0 else math.nan
    if math.isnan(exponent):  # n w^2 underflows to 0, or it and t^2 overflow
        ratio = t / range_width
        exponent = -2.0 * (ratio * ratio) / n
    return min(1.0, 2.0 * math.exp(exponent))


class ReportedBound(NamedTuple):
    """A bound the reports carry: its grid parameters in call order, and whether
    it returns a `BoundValue` (and so has a vacuous column)."""

    params: tuple
    flagged: bool


# Every bound a report row carries, keyed by its function's name.  The report
# looks the name up in this module when it calls the bound, not when this
# table is built, so a patched attribute (a profiler's wrapper) runs.
REPORTED_BOUNDS = {
    "classical_constant": ReportedBound(("S",), False),
    "minimax_entropy_lower": ReportedBound(("H", "n", "c"), True),
    "minimax_lower_hd": ReportedBound(("S", "n", "zeta"), True),
    "mle_entropy_lower": ReportedBound(("H", "n", "c"), False),
    "mle_entropy_upper": ReportedBound(("H", "n", "eta"), True),
    "mle_upper_simple": ReportedBound(("S", "n"), False),
    "mle_upper_tight": ReportedBound(("S", "n"), False),
    "simplex_lower": ReportedBound(("H", "n", "c"), True),
    "threshold_upper": ReportedBound(("H", "n", "eta"), True),
}
