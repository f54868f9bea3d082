"""One contract for every public entry that takes a number: given arguments in
the domain its docstring states, it returns a value in the range it states or
raises a ValueError naming a parameter (a documented ceiling); given any other,
it raises that ValueError.  An integral float or numpy scalar of an in-domain
value gives the in-domain result.  An OverflowError, ZeroDivisionError,
MemoryError, NaN, unflagged inf or warning breaks it.  A record keeps its
domain through `_replace`.  The command line keeps one contract too: any grid
value exits 0, 1 (a FAIL verdict) or 2 with one `error: ...` line, never a
traceback.  Each call runs under a time and address-space limit on this
process alone, so one that would allocate gigabytes fails fast."""

import functools
import io
import math
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1minimax as lm
from l1minimax import cli

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


def pair(probs, make=lm.ProbabilityVector):
    """make([probs, 1 - probs]), the complement of the Python value: exact for an int."""
    plain = probs.item() if isinstance(probs, np.generic) else probs
    return make([probs, 1 - plain])


class Entry(NamedTuple):
    """A public entry's parameters with their in-domain values, its domain as
    its docstring or the README states it (a predicate of the same keywords),
    the check of what it returns, how to call it with keywords if not as the
    package's attribute of its name, the message of its stated ceiling, the
    one ValueError it may raise inside its domain, and for a record the fields
    its arguments make: the row holds through `_replace` of its in-domain
    record as well."""

    params: dict
    domain: Callable
    valid: Callable
    call: Optional[Callable] = None
    ceiling: Optional[str] = None
    fields: Optional[Callable] = None


PAIR = lm.ProbabilityVector([0.5, 0.5])
BLOCKS = lm.CompressedFamily(((0.25, 2), (0.5, 1)))  # a block atom of mass 0.5
PRIOR = lm.CompositePrior(0.5, 10, 2)
SIZES, HIGH_DIM = {"S": 10, "n": 100}, {"S": 10, "n": 100, "zeta": 0.5}
SIMPLE = Entry(SIZES, lambda S, n: sizes(S, n, 1), finite)
WINDOW = "too large for an exact sum"  # a pmf window past 10^7 points
UPPER = Entry({"H": 1.0, "n": 1000, "eta": 1.1},
              lambda H, n, eta: 0 <= H <= M and 2 <= n <= M and 1 < eta <= M, bound)
LOWER = Entry({"H": 1.0, "n": 1000, "c": 0.5}, entropy_lower, bound)
SEED, EXACT, DRAWN = 2**64 - 1, 2**63 - 1, 2**50 - 1  # largest seed, n of an exact sum, of a draw
BLOCKED = 2 * 10**7  # largest n of a draw from BLOCKS: 10^7 expected block draws


def mc_risk_of(family, most_n: int) -> Entry:
    return Entry({"n": 10, "replicates": 100, "master_seed": 1},
                 lambda n, replicates, master_seed: whole(n, 1, most_n) and whole(
                     replicates, 100, 10**7) and whole(master_seed, 0, SEED),
                 lambda est: risk(est.mean) and finite(est.ci_lo) and finite(est.ci_hi),
                 lambda n, replicates, master_seed: lm.mc_risk(
                     family, lm.empirical_estimator(), n, lm.McConfig(replicates, master_seed)))


def sample_multinomial_of(family, most_n: int) -> Entry:
    return Entry({"n": 10, "seed": 1},
                 lambda n, seed: whole(n, 1, most_n) and whole(seed, 0, SEED),
                 lambda counts: counts.min() >= 0,
                 lambda n, seed: lm.sample_multinomial(family, n, seed))


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
                             lambda cfg: finite(cfg.eta), fields=dict),
    "threshold_level": Entry({"n": 100, "eta": 1.1},
                             lambda n, eta: whole(n, 2, EXACT) and 1 < eta <= M,
                             lambda cut: cut >= 0.0,
                             lambda n, eta: lm.threshold_level(lm.ThresholdConfig(n, eta))),
    "CompositePrior": Entry({"delta": 0.5, "S_prime": 10, "k": 2},
                            lambda delta, S_prime, k: 0 < delta < 1 and whole(S_prime)
                            and whole(k, 2), lambda cp: 0 < cp.delta < 1, fields=dict),
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
    "ProbabilityVector": Entry({"probs": 0.5}, lambda probs: 0 <= probs <= 1, distribution, pair,
                               fields=lambda probs: {"probs": pair(probs, list)}),
    "ProbabilityVector.uniform": Entry(
        {"support_size": 3}, lambda support_size: whole(support_size, 1, 10**7), distribution,
        lm.ProbabilityVector.uniform),
    # the zero atom keeps the mass 1 at any multiplicity; the mass must stay within 1e-9 of 1
    "CompressedFamily": Entry(
        {"value": 0.0, "multiplicity": 3}, lambda value, multiplicity: whole(multiplicity) and (
            0 <= value <= M and float(value) * float(multiplicity) <= 1e-9),
        lambda fam: fam.atoms[0] == (1.0, 1),
        lambda value, multiplicity: lm.CompressedFamily(((1.0, 1), (value, multiplicity))),
        fields=lambda value, multiplicity: {"atoms": ((1.0, 1), (value, multiplicity))}),
    "McConfig": Entry({"replicates": 100, "master_seed": 1}, lambda replicates, master_seed: (
        whole(replicates, 100, 10**7) and whole(master_seed, 0, SEED)),
        lambda cfg: 100 <= cfg.replicates <= 10**7, fields=dict),
    "mc_risk": mc_risk_of(PAIR, DRAWN),
    "mc_risk/blocks": mc_risk_of(BLOCKS, BLOCKED),
    "sample_multinomial": sample_multinomial_of(PAIR, DRAWN),
    "sample_multinomial/blocks": sample_multinomial_of(BLOCKS, BLOCKED),
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
    entry = ENTRIES[name]
    call = entry.call or getattr(lm, name)
    routes = {"": call}
    if entry.fields is not None:
        made = call(**entry.params)
        routes["._replace"] = lambda **given: made._replace(**entry.fields(**given))
    text = ", ".join(f"{param}={value!r}"[:60] for param, value in args.items())
    for route, call in routes.items():
        if (breach := _reason(entry, call, args)) is not None:
            return f"{name}{route}({text}): {breach}"
    return None


def _reason(entry: Entry, call: Callable, args: dict):
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
# a row's block draws were allocated at once: 3.73 GiB at n = 10^9, 37.3 at 10^10
CASES += [pytest.param(name, [{**ENTRIES[name].params, "n": n} for n in (BLOCKED + 1, 10**10)],
                       id=f"{name}-n-past-its-ceiling") for name in ENTRIES if "/blocks" in name]


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


# The command line.  A usage error row: its arguments, the message of its
# `error: ` line (argparse's own may go on past it) and the text of the family
# file "{tmp}/fam.txt" if it has one, "{tmp}" being the row's own directory
FAMILY, FILE, OUT = "{tmp}/fam.txt", "file:{tmp}/fam.txt", " --out {tmp}/x.csv"
BOUNDS, EXACT_RISK = "bounds --grid-S 10 --grid-n 100", "exact-risk --grid-S 2 --grid-n 10"
MC, SEEDED = "mc --grid-S 2 --grid-n 10 --replicates 200", "mc --grid-S 2 --grid-n 10 20"
S_FINITE = "S = round(n / c) must be finite at every --grid-n and --grid-c value"
USAGE = {
    # a reproduce grid outside a library's domain or its target's own, named by the target
    **{name: (f"reproduce {name.split()[0]} {grids}", f"{name.split()[0]}: {message}")
       for name, grids, message in [
        ("cor2 S", "--grid-S 1", "S must be at least 2 and finite, got S=1"),
        ("cor6 n", "--grid-n 1", "entropy-ball needs n >= 2, got n=1"),
        ("cor3-4 c", "--grid-c 0", "--grid-c values must satisfy 0 < c < inf"),
        ("cor7 eta", "--grid-eta 0.5", "eta must exceed 1 and be finite, got eta=0.5"),
        ("cor9 H", "--grid-H -1", "H must be positive and finite, got H=-1.0"),
        # c and n each in range, but delta = cH / ln n = 1.45 is not
        ("cor6 delta", "--grid-c 10 --grid-n 1000",
         "delta must lie in (0, 1), got delta=1.4476482730108395"),
        # the simplex floor cor9 checks against is defined for c in (0, 1), n >= e^H only
        ("cor9 c", "--grid-c 1.5 --grid-n 1000", "c must lie in (0, 1), got c=1.5"),
        ("cor9 floor", "--grid-n 2 1000", "requires n >= e^H = 2.71828, got n=2"),
        ("cor9 floor-H", "--grid-H 3 --grid-n 10", "requires n >= e^H = 20.0855, got n=10"),
        # cor7 compares both estimators at one threshold exponent
        ("cor7 etas", "--grid-eta 1.1 1.5", "--grid-eta takes one value"),
        # inf is no ratio n/S and no threshold exponent; its rows would end in a FAIL
        ("cor3-4 c=inf", "--grid-c inf", "--grid-c values must satisfy 0 < c < inf"),
        ("cor7 eta=inf", "--grid-eta inf", "eta must exceed 1 and be finite, got eta=inf"),
        # S = round(n / c) past the float range, from n and from c
        ("cor3-4 n past floats", f"--grid-n={10**400}", S_FINITE),
        ("cor3-4 c subnormal", "--grid-c=5e-324", S_FINITE)]},
    # master seeds are 64-bit unsigned: -3 would run as 2^64 - 3, 2^64 as 0
    "mc-seed-negative": (SEEDED + " --replicates 200 --seed -3",
                         "--seed must be in [0, 2^64), got -3"),
    "mc-seed-2^64": (SEEDED + f" --replicates 200 --seed {1 << 64}",
                     f"--seed must be in [0, 2^64), got {1 << 64}"),
    "cor2-seed-negative": ("reproduce cor2 --grid-n 100 --seed -1",
                           "--seed must be in [0, 2^64), got -1"),
    # too few replicates for every cell, not one error row per cell
    "mc-replicates": ("mc --grid-S 2 --grid-n 4 --replicates 50", "replicates must be an "
                      "integer of at least 100 for CI reporting and at most 10^7, got 50"),
    "unknown-target": ("reproduce cor99", "argument target: invalid choice: 'cor99'"),
    "bounds-no-grids": ("bounds" + OUT, "bounds needs at least one --grid-* parameter"),
    "unknown-family": ("exact-risk --family prawns --grid-n 4" + OUT,
                       "unknown family 'prawns' (expected uniform | entropy-ball | file:PATH)"),
    # each command accepts only the flags it reads, and each grid once: argparse
    # alone would keep the last list and drop the earlier values
    **{name: (f"{argv} {flag}", "unrecognized arguments: " + flag) for name, argv, flag in [
        ("bounds-replicates", BOUNDS, "--replicates 5"), ("mc-zeta", MC, "--grid-zeta 0.5"),
        ("exact-risk-zeta", EXACT_RISK, "--grid-zeta 0.5"), ("bounds-timing", BOUNDS, "--timing"),
        ("cor2-H", "reproduce cor2 --grid-n 100", "--grid-H 1"), ("mc-timing", MC, "--timing"),
        ("cor6-timing", "reproduce cor6 --grid-n 1000", "--timing"),
        ("exact-risk-timing", EXACT_RISK, "--timing")]},
    **{f"{name}-grid-twice": (f"{argv} --grid-{grid} {value}" + OUT,
                              f"argument --grid-{grid}: given more than once")
       for name, argv, grid, value in [
        ("bounds", "bounds --grid-S 2 --grid-n 10", "S", 3), ("exact-risk", EXACT_RISK, "n", 20),
        ("mc", MC, "n", 20), ("cor2", "reproduce cor2 --grid-n 100", "n", 1000)]},
    # --family reads only its own grids, --grid-eta only where a cell reads it
    "entropy-ball-S": ("exact-risk --family entropy-ball --grid-S 5 7 --grid-H 1 --grid-c 0.5 "
                       "--grid-n 1000" + OUT, "--family entropy-ball does not read --grid-S"),
    "uniform-H": ("exact-risk --family uniform --grid-S 2 --grid-H 1 --grid-n 10" + OUT,
                  "--family uniform does not read --grid-H"),
    "uniform-c": ("exact-risk --grid-S 2 --grid-c 0.5 --grid-n 10" + OUT,
                  "--family uniform does not read --grid-c"),
    "file-S": (f"exact-risk --family {FILE} --grid-S 2 --grid-n 10" + OUT,
               f"--family {FILE} does not read --grid-S", "0.5 2\n"),
    "uniform-empirical-eta": (
        "exact-risk --family uniform --grid-S 2 --grid-n 10 --estimator empirical --grid-eta "
        "1.1 1.5" + OUT, "--family uniform does not read --grid-eta without --estimator threshold"),
    "entropy-ball-no-c": ("exact-risk --family entropy-ball --grid-H 1 --grid-n 1000" + OUT,
                          "--family entropy-ball requires --grid-c"),
    **{f"{command}-estimator-twice": (
        f"{command} --grid-S 2 --grid-n 10 --estimator empirical --estimator threshold "
        "--estimator empirical" + OUT, "--estimator empirical given more than once")
       for command in ("exact-risk", "mc")},
    # an --out that cannot be written writes nothing, the verdicts included
    **{f"{name}-unwritable-out": (argv + " --out {tmp}/missing/x.csv",
                                  "{tmp}/missing/x.csv: No such file or directory")
       for name, argv in [("bounds", "bounds --grid-S 2 --grid-n 10"),
                          ("cor2", "reproduce cor2 --grid-n 100 1000")]},
    # a family file that cannot be read, does not parse, or whose mass is far from 1
    **{f"file-{label}": (f"exact-risk --family {FILE} --grid-n 10" + OUT, FAMILY + message, text)
       for label, text, message in [
        ("missing", None, ": No such file or directory"),
        ("parse-error", "0.5 1\noops\n", ":2: expected 'value multiplicity', got 'oops'"),
        ("mass", "0.4 1\n0.4 1\n",
         ": atom masses (value x multiplicity) sum to 0.8, too far from 1 to normalize"),
        ("bad-multiplicity", "0.5 1\n0.5 two\n",
         ":2: invalid literal for int() with base 10: 'two'"),
        ("bad-value", "half 2\n", ":1: could not convert string to float: 'half'"),
        ("comments-only", "# comments only\n\n   # and a blank line\n", ": no atoms found"),
        ("mass-past-floats", "1e308 1\n1e308 1\n",
         ": atom masses (value x multiplicity) sum to inf, too far from 1 to normalize")]},
}


def _main(argv: list, tmp: pathlib.Path, family: Optional[str]) -> tuple:
    """(exit code, stdout, stderr) of `cli.main(argv)` in-process under `_limits()`,
    "{tmp}" in `argv` being `tmp`, and `family` the text of "{tmp}/fam.txt"."""
    if family is not None:
        (tmp / "fam.txt").write_text(family, encoding="utf-8")
    out, err, started = io.StringIO(), io.StringIO(), time.perf_counter()
    with _limits(), warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
    # a cell that runs out of time keeps the TimeoutError in its row's error
    assert time.perf_counter() - started < SECONDS, f"ran past {SECONDS} s"
    return code, out.getvalue(), err.getvalue()


def _error(err: str) -> Optional[str]:
    """The message of a usage error's stderr: `main`'s one `error: ` line, or
    argparse's usage lines and its `PROG: error: ` line; else None."""
    match = re.fullmatch(r"((?s:usage: .*)\nl1minimax[\w -]*: )?error: (.+)\n", err)
    return match and match[2]


@pytest.mark.parametrize("argv, message, family", [(*row, None)[:3] for row in USAGE.values()],
                         ids=USAGE)
def test_usage_error(tmp_path, argv, message, family):
    # exit code 1 is a FAIL verdict; a bad invocation exits 2 and writes nothing
    code, out, err = _main(argv.split(), tmp_path, family)
    message, got = message.replace("{tmp}", str(tmp_path)), _error(err)
    assert (code, out) == (2, "") and got is not None, err
    assert got == message or err.startswith("usage: ") and got.startswith(message), err
    assert [p.name for p in tmp_path.iterdir()] == ["fam.txt"] * (family is not None)


# Every --grid-* flag of each command, per --family, and of each reproduce
# target, at each extreme value, the other grids at SMALL; exact-risk and mc
# cells take both estimators, so every family reads --grid-eta
SMALL = {"H": 1, "S": 2, "c": 0.5, "eta": 1.1, "n": 1000, "zeta": 0.5}
COMMANDS = {"bounds": (["bounds"], list(cli._GRIDS))}
COMMANDS.update({
    f"{command}-{family}": ([command, "--family=" + family.replace("file:PATH", FILE),
                             "--estimator=empirical", "--estimator=threshold",
                             *["--replicates=100"] * (command == "mc")], [*grids, "eta"])
    for command in ("exact-risk", "mc") for family, (grids, _) in cli._FAMILIES.items()})
COMMANDS.update({f"reproduce-{target}": (["reproduce", target], list(grids))
                 for target, (*_, grids) in cli._REPRODUCE_TARGETS.items()})
GRID_CASES = [pytest.param(argv, grids, flag, id=f"{name}-{flag}")
              for name, (argv, grids) in COMMANDS.items() for flag in grids]


@pytest.mark.parametrize("argv, grids, flag", GRID_CASES)
def test_each_grid_flag_at_each_value(tmp_path, monkeypatch, argv, grids, flag):
    # main() builds the same parser at every call: most of a call's time here
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    for value in EXTREMES:
        args = [*argv, *(f"--grid-{g}={value if g == flag else SMALL[g]}" for g in grids)]
        row = " ".join(args)[:200]
        try:
            code, _, err = _main(args, tmp_path, "0.5 2\n")
        except Exception as exc:
            raise AssertionError(row) from exc
        assert code in (0, 1) or code == 2 and _error(err), f"{row}: exit {code}, {err}"
