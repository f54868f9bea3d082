"""One contract for every public entry that takes a number: given arguments in
the domain its docstring states, it returns a value in the range it states or
raises a ValueError naming a parameter (a documented ceiling); given any other,
it raises that ValueError.  An integral float or numpy scalar of an in-domain
value gives the in-domain result.  An OverflowError, ZeroDivisionError,
MemoryError, NaN, unflagged inf or warning breaks it.  Each call runs under a
time and address-space limit on this process alone, so one that would allocate
gigabytes fails fast."""

import math
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1minimax as lm

# NaN, +-inf, +-0, +-1, the smallest subnormal, a fraction, ints past 2^53 and
# 2^63, either side of 2^64, the top decade of floats and an int past them
EXTREMES = (math.nan, math.inf, -math.inf, 0, 0.0, -0.0, 1, -1, 5e-324, 10.5, 2**53 + 2,
            2**63, 2**64 - 1, 2**64, 1e308, 10**400)
SECONDS, HEADROOM = 5.0, 1 << 29  # per call: wall time, bytes of address space
M = sys.float_info.max


def _pool(in_domain) -> dict:
    """The values a parameter is tried at, by label: the extremes and its in-domain
    value (for an int also as a float and a half above), each with its numpy scalars."""
    plain = [*EXTREMES, in_domain]
    if isinstance(in_domain, int):
        plain += [float(in_domain), in_domain + 0.5]
    pool = {}
    for v in plain:
        whole = type(v) is int
        kinds = ((np.float64, not whole or abs(v) <= M),
                 (np.int64, whole and abs(v) < 2**63), (np.uint64, whole and 0 <= v < 2**64))
        pool[f"{type(v).__name__}({str(v)[:24]})"] = [v, *(kind(v) for kind, fit in kinds if fit)]
    return pool


def _within(lo: float, hi: float) -> Callable:
    return lambda value: isinstance(value, float) and lo <= value <= hi


finite = _within(-M, M)
probability, risk = _within(0, 1), _within(0, 2)


def bound(value) -> bool:
    return finite(value.value) or value.value == math.inf and value.vacuous


def distribution(pv) -> bool:
    return all(map(probability, pv.probs.tolist())) and abs(math.fsum(pv.probs) - 1) <= 1e-9


def whole(value, least=1, most=M) -> bool:
    """A whole number in [least, most], as `core._whole` reads one."""
    return value == value and abs(value) != math.inf and value == int(value) and (
        least <= int(value) <= most)


def sizes(S, n, least_S=2) -> bool:
    return least_S <= S <= M and 1 <= n <= M


def high_dim(S, n, zeta) -> bool:
    return sizes(S, n) and 0 < zeta <= 1 and (1 + float(zeta)) * float(n) <= M


def entropy_lower(H, n, c) -> bool:
    return 0 < H <= M and 0 < n <= M and 0 < c < 1 and math.log(n) >= H


def pair(probs) -> "lm.ProbabilityVector":
    """(probs, 1 - probs), the complement of the Python value: exact for an int."""
    plain = probs.item() if isinstance(probs, np.generic) else probs
    return lm.ProbabilityVector([probs, 1 - plain])


class Entry(NamedTuple):
    """A public entry's parameters with their in-domain values, its domain as
    its docstring or the README states it (a predicate of the same keywords),
    the check of what it returns, how to call it with keywords if not as the
    package's attribute of its name, and the message of its stated ceiling,
    the one ValueError it may raise inside its domain."""

    params: dict
    domain: Callable
    valid: Callable
    call: Optional[Callable] = None
    ceiling: Optional[str] = None


PAIR = lm.ProbabilityVector([0.5, 0.5])
PRIOR = lm.CompositePrior(0.5, 10, 2)
SIZES, HIGH_DIM = {"S": 10, "n": 100}, {"S": 10, "n": 100, "zeta": 0.5}
SIMPLE = Entry(SIZES, lambda S, n: sizes(S, n, 1), finite)
WINDOW = "too large for an exact sum"  # a pmf window past 10^7 points
UPPER = Entry({"H": 1.0, "n": 1000, "eta": 1.1},
              lambda H, n, eta: 0 <= H <= M and 2 <= n <= M and 1 < eta <= M, bound)
LOWER = Entry({"H": 1.0, "n": 1000, "c": 0.5}, entropy_lower, bound)
SEED, EXACT, DRAWN = 2**64 - 1, 2**63 - 1, 2**50 - 1  # largest seed, n of an exact sum, of a draw

ENTRIES = {
    "mle_upper_simple": SIMPLE,
    "mle_upper_tight": SIMPLE,
    "classical_constant": Entry({"S": 10}, lambda S: sizes(S, 1), finite),
    "bayes_risk_two_point_piecewise": Entry(SIZES, sizes, probability),
    "bayes_risk_two_point": Entry(SIZES, sizes, probability, ceiling=WINDOW),
    "minimax_lower_hd": Entry(HIGH_DIM, high_dim, bound),
    "assembled_minimax_lower_hd": Entry(
        HIGH_DIM, lambda S, n, zeta: high_dim(S, n, zeta) and S >= 3, bound, ceiling=WINDOW),
    "mle_entropy_upper": UPPER,
    "threshold_upper": UPPER,
    # n > max{e^H, (1-c)^(-1/(1-c))}
    "mle_entropy_lower": Entry(LOWER.params, lambda H, n, c: entropy_lower(H, n, c) and (
        math.log(n) > max(H, -math.log1p(-float(c)) / (1 - float(c)))), finite),
    "minimax_entropy_lower": LOWER,
    "simplex_lower": LOWER,
    "adell_jodra_tv_bound": Entry({"t": 1.0, "x": 1.0}, lambda t, x: 0 <= t <= M and x >= 0,
                                  probability),
    "chernoff_tails": Entry({"lam": 100.0, "delta": 0.5},
                            lambda lam, delta: 0 <= lam <= M and 0 < delta < 1,
                            lambda tails: all(map(probability, tails))),
    "hoeffding_bound": Entry({"n": 10, "range_width": 1.0, "t": 1.0},
                             lambda n, range_width, t: 1 <= n <= M and range_width > 0 <= t,
                             probability),
    "poisson_tv_exact": Entry({"lam_lo": 1.0, "lam_hi": 2.0},
                              lambda lam_lo, lam_hi: 0 <= lam_lo <= M and 0 <= lam_hi <= M
                              and lam_lo <= lam_hi, probability, ceiling=WINDOW),
    # point masses: one-count windows at any n, so sizes past 2^53 cost nothing
    "binomial_mad_exact": Entry({"n": 10, "p": 1.0},
                                lambda n, p: whole(n, 1, EXACT) and 0 <= p <= 1, probability,
                                ceiling=WINDOW),
    "estimator_risk_exact": Entry(
        {"probs": 1.0, "n": 10}, lambda probs, n: 0 <= probs <= 1 and whole(n, 1, EXACT),
        risk, lambda probs, n: lm.estimator_risk_exact(pair(probs), lm.empirical_estimator(), n),
        ceiling=WINDOW),
    # S' >= 1: H is at least delta's binary entropy; S' past e^700 is its ceiling
    "entropy_ball_family": Entry({"H": 1.0, "delta": 0.5}, lambda H, delta: 0 < delta < 1 and (
        H <= M and -delta * math.log(delta) - (1 - delta) * math.log1p(-delta) <= H),
        lambda fam: 0 < fam.delta < 1, ceiling="exceeds double-precision range"),
    "ThresholdConfig": Entry({"n": 100, "eta": 1.1},
                             lambda n, eta: whole(n, 1, EXACT) and 1 < eta <= M,
                             lambda cfg: finite(cfg.eta)),
    "threshold_level": Entry({"n": 100, "eta": 1.1},
                             lambda n, eta: whole(n, 2, EXACT) and 1 < eta <= M,
                             lambda cut: cut >= 0.0,
                             lambda n, eta: lm.threshold_level(lm.ThresholdConfig(n, eta))),
    "CompositePrior": Entry({"delta": 0.5, "S_prime": 10, "k": 2},
                            lambda delta, S_prime, k: 0 < delta < 1 and whole(S_prime)
                            and whole(k, 2), lambda cp: 0 < cp.delta < 1),
    "bayes_risk_entropy_ball": Entry(
        {"n": 10}, lambda n: 0 <= n <= M, lambda out: probability(out.exact) and finite(
            out.linearized), lambda n: lm.bayes_risk_entropy_ball(PRIOR, n)),
    "bayes_risk_entropy_ball_constrained": Entry(
        {"n": 10}, lambda n: 0 <= n <= M, risk,
        lambda n: lm.bayes_risk_entropy_ball_constrained(PRIOR, n)),
    "sample_from_composite_prior": Entry(
        {"S_prime": 3, "k": 4, "seed": 1},
        lambda S_prime, k, seed: whole(S_prime) and whole(k, 2) and whole(seed, 0, SEED),
        lambda slots: sorted(set(slots)) == list(slots), lambda S_prime, k, seed: (
            lm.sample_from_composite_prior(lm.CompositePrior(0.5, S_prime, k), seed)),
        ceiling="too large to"),  # k S' slots past 2^53, or S' past 10^7
    "ProbabilityVector": Entry({"probs": 0.5}, lambda probs: 0 <= probs <= 1, distribution, pair),
    "ProbabilityVector.uniform": Entry(
        {"support_size": 3}, lambda support_size: whole(support_size, 1, 10**7), distribution,
        lm.ProbabilityVector.uniform),
    # the zero atom keeps the mass 1 at any multiplicity; the mass must stay within 1e-9 of 1
    "CompressedFamily": Entry(
        {"value": 0.0, "multiplicity": 3}, lambda value, multiplicity: whole(multiplicity) and (
            0 <= value <= M and float(value) * float(multiplicity) <= 1e-9),
        lambda fam: fam.atoms[0] == (1.0, 1), lambda value, multiplicity: lm.CompressedFamily(
            ((1.0, 1), (value, multiplicity)))),
    "McConfig": Entry({"replicates": 100, "master_seed": 1}, lambda replicates, master_seed: (
        whole(replicates, 100, 10**7) and whole(master_seed, 0, SEED)),
        lambda cfg: 100 <= cfg.replicates <= 10**7),
    "mc_risk": Entry(
        {"n": 10, "replicates": 100, "master_seed": 1}, lambda n, replicates, master_seed: (
            whole(n, 1, DRAWN) and whole(replicates, 100, 10**7) and whole(master_seed, 0, SEED)),
        lambda est: risk(est.mean) and finite(est.ci_lo) and finite(est.ci_hi),
        lambda n, replicates, master_seed: lm.mc_risk(
            PAIR, lm.empirical_estimator(), n, lm.McConfig(replicates, master_seed))),
    "sample_multinomial": Entry({"n": 10, "seed": 1},
                                lambda n, seed: whole(n, 1, DRAWN) and whole(seed, 0, SEED),
                                lambda counts: counts.min() >= 0,
                                lambda n, seed: lm.sample_multinomial(PAIR, n, seed)),
    "derive_replicate_seed": Entry({"master_seed": 1, "replicate": 2},
                                   lambda master_seed, replicate: whole(master_seed, 0, SEED)
                                   and whole(replicate, 0, SEED), lambda seed: 0 <= seed <= SEED),
}


@contextmanager
def _limits():
    """SECONDS of wall time, HEADROOM bytes past this process's size; restored on exit."""
    def expire(signum, frame):
        raise TimeoutError(f"call ran past {SECONDS} s")

    with open("/proc/self/statm") as statm:
        cap = int(statm.read().split()[0]) * resource.getpagesize() + HEADROOM
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = min([cap, *(limit for limit in limits if limit != resource.RLIM_INFINITY)])
    handler = signal.signal(signal.SIGALRM, expire)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
        signal.setitimer(signal.ITIMER_REAL, SECONDS)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        resource.setrlimit(resource.RLIMIT_AS, limits)


def _same(got, want) -> bool:
    """Equal values, an array of one dtype, an int as an int."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want and (type(got) is int) == (type(want) is int)


def _breach(name: str, args: dict):
    """How ENTRIES[name] called with `args` breaks the contract, or None."""
    text = f"{name}(" + ", ".join(f"{param}={value!r}"[:60] for param, value in args.items())
    return None if (breach := _reason(name, args)) is None else f"{text}): {breach}"


def _reason(name: str, args: dict):
    entry = ENTRIES[name]
    call = entry.call or getattr(lm, name)
    moved = [param for param, value in args.items() if value is not entry.params[param]]
    try:
        with _limits(), warnings.catch_warnings():
            warnings.simplefilter("error")
            value = call(**args)
    except ValueError as exc:
        if not any(re.search(rf"\b{re.escape(param)}\b", str(exc)) for param in moved):
            return f"ValueError naming none of {moved}: {exc}"
        if entry.domain(**args) and not (entry.ceiling and entry.ceiling in str(exc)):
            return f"ValueError inside its domain: {exc}"
        return None
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if not entry.domain(**args):
        return f"returned {value!r} outside its domain"
    if not entry.valid(value):
        return f"out of range: {value!r}"
    if all(args[param] == in_domain for param, in_domain in entry.params.items()):
        if not _same(value, call(**entry.params)):
            return f"{value!r} is not the in-domain result"
    return None


# each parameter at each value of its pool, the others in domain; all at each extreme
CASES = [pytest.param(name, [{**entry.params, param: v} for v in values],
                      id=f"{name}-{param}-{label}")
         for name, entry in ENTRIES.items() for param in entry.params
         for label, values in _pool(entry.params[param]).items()]
CASES += [pytest.param(name, [dict.fromkeys(entry.params, v) for v in EXTREMES], id=f"{name}-all")
          for name, entry in ENTRIES.items()]


@pytest.mark.parametrize("name, calls", CASES)
def test_each_parameter_at_each_value(name, calls):
    breaches = [breach for args in calls if (breach := _breach(name, args)) is not None]
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("name", ENTRIES)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_drawn_arguments_keep_the_contract(name, data):
    args = {param: data.draw(st.sampled_from(sum(_pool(in_domain).values(), [])), label=param)
            for param, in_domain in ENTRIES[name].params.items()}
    assert (breach := _breach(name, args)) is None, breach


def test_size_rule_holds_without_numpy():
    # binomial_mad_exact(2**63, 1.0) read 0.0 while numpy was not loaded, and
    # raised OverflowError once it was: both routes now reject n past int64
    script = ("import sys\nfrom l1minimax.exact import binomial_mad_exact as mad\n"
              "print(mad(2**63 - 1, 1.0))\ntry:\n    mad(2**63, 1.0)\n"
              "except ValueError as exc:\n    print(exc)\nprint('numpy' in sys.modules)\n")
    src = pathlib.Path(lm.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.stdout.splitlines() == [
        "0.0", f"n must be a positive integer below 2^63, got n={2**63}", "False"], proc.stderr
