"""Command-line harness for reproducible experiment sweeps.

Subcommands: `bounds` evaluates every closed-form bound on a parameter
grid, `exact-risk` computes enumeration-based risks on named families,
`mc` cross-validates them by seeded Monte Carlo, and `reproduce` runs
scripted trend sweeps with PASS/FAIL verdicts.

Reruns with identical arguments produce byte-identical output files, so
diagnostics, each report row's wall-clock time among them, go to stderr
with -v.  Each command returns a generator that yields its report rows and
returns its verdicts; `_sweep` is the one place that runs it and times a
row.  Cells run in order, in-process; `mc_risk` splits a large `mc` cell's
replicates over CPUs itself.

Only `bounds` and `report` load with this module: each command imports the
numeric modules it calls before its sweep starts, so `bounds`, `-h`
and argparse's usage errors never import numpy.  Nor do `exact-risk`,
`reproduce cor2`, `cor3-4` and `cor9` while their pmf windows are small
enough to be lists (`binomial._list_window`); cor6 and cor7 load numpy
before their sweeps.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import logging
import math
import sys
import time
from typing import TYPE_CHECKING, Optional

from . import bounds as bnd
from .report import PARAM_COLUMNS, write_report

if TYPE_CHECKING:
    from .core import CompressedFamily
    from .estimators import CoordinatewiseEstimator

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation or unreadable input; aborts the whole run."""


# ---------------------------------------------------------------------------
# input handling

def load_family_file(path: str) -> CompressedFamily:
    """Parse 'value multiplicity' lines ('#' comments allowed) into a family."""
    from .core import CompressedFamily
    atoms = []
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(
                    f"{path}:{lineno}: expected 'value multiplicity', got {line!r}")
            try:
                value = float(parts[0])
                mult = int(parts[1])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
            atoms.append((value, mult))
    if not atoms:
        raise UsageError(f"{path}: no atoms found")
    try:
        return CompressedFamily(tuple(atoms))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _build_estimator(name: str, n: int, eta: Optional[float]) -> CoordinatewiseEstimator:
    from .estimators import ThresholdConfig, empirical_estimator, threshold_estimator
    if name == "empirical":
        return empirical_estimator()
    return threshold_estimator(ThresholdConfig(n, eta))


def _uniform_family(S: int) -> CompressedFamily:
    from .core import CompressedFamily
    if S < 1:
        raise ValueError("S must be positive")
    return CompressedFamily(((1.0 / S, S),))


def _entropy_ball(H: float, c: float, n: int):
    """The entropy-ball family of the sweeps, at delta = c H / ln n."""
    from .families import entropy_ball_family
    if n < 2:
        raise ValueError(f"entropy-ball needs n >= 2, got n={n}")
    return entropy_ball_family(H, c * H / math.log(n))


def _file_family(path: str):
    family = load_family_file(path)
    return lambda n: family


# --family name: (the grids it reads, its source).  The source is called once
# with the text after the name's colon (the PATH of file:PATH) and returns
# the family's distribution at a grid point.
_FAMILIES = {
    "uniform": (("S", "n"), lambda _: lambda S, n: _uniform_family(S)),
    "entropy-ball": (("H", "c", "n"),
                     lambda _: lambda H, c, n: _entropy_ball(H, c, n).family),
    "file:PATH": (("n",), _file_family),
}


# ---------------------------------------------------------------------------
# grid points and the bounds at each

def _grid_points(args, names) -> list:
    """One {name: value} dict per point of the product of the --grid-<name> lists."""
    grids = [getattr(args, "grid_" + name) for name in names]
    return [dict(zip(names, point)) for point in itertools.product(*grids)]


def _cell_bounds(**grid) -> dict:
    """Every reported bound whose parameters are in `grid` and inside their
    domains, as its function returns it."""
    values = {}
    for name, bound in bnd.REPORTED_BOUNDS.items():
        args = [grid.get(param) for param in bound.params]
        if any(arg is None for arg in args):
            continue
        try:
            values[name] = getattr(bnd, name)(*args)
        except ValueError:
            continue
    return values


# ---------------------------------------------------------------------------
# subcommands

def _load(*modules: str) -> None:
    """Import the `modules` a command calls before its sweep starts, so that
    no row's time counts loading them: the package's numeric modules by
    relative name (".exact"), and numpy for a sweep that sums arrays."""
    for module in modules:
        importlib.import_module(module, __package__)


def _cells(cells):
    """Yields the report row of each (params, fill) cell in order: its params
    dict, filled in by `fill`; a cell whose fill raises keeps what it recorded
    so far plus the error text."""
    for row, fill in cells:
        try:
            fill(row)
        except Exception as exc:  # keep the sweep going, record the cell
            row["error"] = str(exc)
        yield row


def _fill_bounds(row) -> None:
    row.update(_cell_bounds(**row))


def cmd_bounds(args):
    names = [name for name in _GRIDS if getattr(args, "grid_" + name)]
    if not names:
        raise UsageError("bounds needs at least one --grid-* parameter")
    return _cells([(point, _fill_bounds) for point in _grid_points(args, names)])


def _family_cells(args):
    """The grids --family reads, and its cells (params dict, family builder)."""
    family = args.family
    name, colon, arg = family.partition(":")
    entry = _FAMILIES.get(name + ":PATH" if colon else name)
    if entry is None:
        raise UsageError(f"unknown family {family!r} (expected {' | '.join(_FAMILIES)})")
    grids, source = entry
    others = {g for other, _ in _FAMILIES.values() for g in other} - set(grids)
    unread = [g for g in sorted(others) if getattr(args, "grid_" + g)]
    if unread:
        raise UsageError(f"--family {family} does not read "
                         + " and ".join("--grid-" + g for g in unread))
    missing = [g for g in grids if not getattr(args, "grid_" + g)]
    if missing:
        raise UsageError(f"--family {family} requires "
                         + " and ".join("--grid-" + g for g in missing))
    at = source(arg)
    return grids, [({**point, "family": family}, functools.partial(at, **point))
                   for point in _grid_points(args, grids)]


def cmd_risk(args):
    """`exact-risk` and `mc`; mc adds a Monte-Carlo estimate seeded by the
    cell index and checks the exact risk against its interval."""
    from .estimators import DEFAULT_ETA
    from .exact import estimator_risk_exact
    _load(".families")  # --family entropy-ball's source
    with_mc = args.command == "mc"
    if with_mc:
        from .montecarlo import McConfig, mc_risk
        from .rng import derive_seed
        try:
            McConfig(args.replicates, args.seed)
        except ValueError as exc:  # wrong for every cell: a bad invocation
            raise UsageError(str(exc)) from exc

    def fill(row, build_family, index) -> None:
        n, eta = row["n"], row["eta"]
        fam = build_family()
        estimator = _build_estimator(row["estimator"], n, eta)
        if with_mc:
            cfg = McConfig(args.replicates, derive_seed(args.seed, index))
            est = mc_risk(fam, estimator, n, cfg)
            row.update(mc_mean=est.mean, mc_ci_lo=est.ci_lo, mc_ci_hi=est.ci_hi)
        row["exact_risk"] = risk = estimator_risk_exact(fam, estimator, n)
        if with_mc:
            row["mc_within_ci"] = bool(est.ci_lo <= risk <= est.ci_hi)
        row.update(_cell_bounds(**row))

    estimators = args.estimator or ["empirical"]
    repeated = sorted({name for name in estimators if estimators.count(name) > 1})
    if repeated:
        raise UsageError("--estimator " + " and ".join(repeated) + " given more than once")
    grids, family_cells = _family_cells(args)
    # eta is read by the threshold estimator, and by the bounds whose other
    # parameters the family's grids supply (those that need H)
    bounds_read_eta = any("eta" in bound.params and set(bound.params) <= {"eta", *grids}
                          for bound in bnd.REPORTED_BOUNDS.values())
    if args.grid_eta and not (bounds_read_eta or "threshold" in estimators):
        raise UsageError(f"--family {args.family} does not read --grid-eta "
                         "without --estimator threshold")
    etas = args.grid_eta or [DEFAULT_ETA if "threshold" in estimators else None]
    cells = []
    for (params, build_family), est_name in itertools.product(family_cells, estimators):
        for eta in etas if bounds_read_eta or est_name == "threshold" else [None]:
            cells.append(({**params, "estimator": est_name, "eta": eta},
                          functools.partial(fill, build_family=build_family,
                                            index=len(cells))))
    return _cells(cells)


# ---------------------------------------------------------------------------
# scripted trend sweeps

def _exact_uniform_mle_risk(S: int, n: int) -> float:
    from .estimators import empirical_estimator
    from .exact import estimator_risk_exact
    return estimator_risk_exact(_uniform_family(S), empirical_estimator(), n)


def _verdicts_cor2(args):
    ns = sorted(args.grid_n)
    verdicts = []
    for S in args.grid_S:
        target = bnd.classical_constant(S)
        gaps = []
        for n in ns:
            risk = _exact_uniform_mle_risk(S, n)
            gaps.append(abs(math.sqrt(n) * risk - target))
            yield {"S": S, "n": n, "family": "uniform", "estimator": "empirical",
                   "exact_risk": risk, **_cell_bounds(S=S, n=n)}
        verdicts.append((gaps[-1] <= 0.01,
                         f"S={S}: final |sqrt(n) risk - constant| = {gaps[-1]:.3e} <= 0.01"))
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        verdicts.append((decreasing, f"S={S}: gap decreases monotonically over n={ns}"))
    return verdicts


def _verdicts_cor34(args):
    from .families import bayes_risk_two_point
    cs, ns = args.grid_c, sorted(args.grid_n)
    if not all(0 < c < math.inf for c in cs):  # c is this sweep's own ratio n / S
        raise ValueError("--grid-c values must satisfy 0 < c < inf")
    if not all(n <= sys.float_info.max and n / c < math.inf for c in cs for n in ns):
        raise ValueError("S = round(n / c) must be finite at every --grid-n and --grid-c value")
    floor_constant = math.sqrt(math.e) / 8.0
    upper_ok, lower_ok = True, True
    for c, n in itertools.product(cs, ns):
        S = max(2, round(n / c))
        risk = _exact_uniform_mle_risk(S, n)
        oracle = bayes_risk_two_point(S, n)
        upper_ok &= math.sqrt(c) * risk <= 1.0 + 1e-12
        lower_ok &= math.sqrt(c) * oracle >= floor_constant - 0.02
        yield {"S": S, "c": c, "n": n, "family": "uniform", "estimator": "empirical",
               "exact_risk": risk, "mle_upper_simple": bnd.mle_upper_simple(S, n)}
    return [
        (upper_ok, "sqrt(c) * exact uniform risk <= 1 at every linear-scaling cell"),
        (lower_ok, f"sqrt(c) * two-point Bayes oracle >= sqrt(e)/8 - 0.02 "
                   f"(= {floor_constant - 0.02:.4f}) at every cell"),
    ]


def _trend(args, H: float, cs: list, risk):
    """(n, max, ln(n) * max / H) per n of the sorted n grid, max being the max
    over c in `cs` of risk(ball, c, n) (ball: the entropy ball at
    delta = cH / ln n); cor6/7/9 check these ratios."""
    for n in sorted(args.grid_n):
        best = max(risk(_entropy_ball(H, c, n), c, n) for c in cs)
        yield n, best, math.log(n) * best / H


def _ball_trend(args, H: float, est_name: str, eta: Optional[float] = None):
    """`_trend` of the exact risk on the entropy-ball family at delta = cH / ln n;
    the estimator depends on n alone and is built (and warns) once per n."""
    from .exact import estimator_risk_exact
    estimator = functools.lru_cache(None)(lambda n: _build_estimator(est_name, n, eta))

    def risk(ball, c, n):
        return estimator_risk_exact(ball.family, estimator(n), n)
    return _trend(args, H, args.grid_c, risk)


def _rising_trend(H: float, trend, quantity: str, ratio: str):
    """Yields cor6's and cor9's rows at one H, the max risk per n of a `_trend`,
    and returns their verdicts: ln(n) * `quantity` / H increases over n and
    ends above 1."""
    ns, ratios = [], []
    for n, best, n_ratio in trend:
        ns.append(n)
        ratios.append(n_ratio)
        yield {"H": H, "n": n, "family": "entropy-ball", "estimator": "empirical",
               "exact_risk": best}
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    return [(increasing, f"H={H}: ln(n) * {quantity} / H increases over n={ns}"),
            (ratios[-1] > 1.0, f"H={H}: final {ratio} {ratios[-1]:.4f} exceeds 1.0")]


def _verdicts_cor6(args):
    verdicts = []
    for H in args.grid_H:
        verdicts += yield from _rising_trend(H, _ball_trend(args, H, "empirical"),
                                             "max-c MLE risk", "ratio")
    return verdicts


def _verdicts_cor7(args):
    eta, *more = args.grid_eta
    if more:
        raise ValueError("--grid-eta takes one value")
    verdicts = []
    for H in args.grid_H:
        below, compared = True, []
        # a row per n, after both estimators' max over c at that n
        for (n, _, mle_r), (_, thr_best, thr_r) in zip(
                _ball_trend(args, H, "empirical"), _ball_trend(args, H, "threshold", eta)):
            upper = bnd.threshold_upper(H, n, eta)
            if not upper.vacuous and not bnd.mle_entropy_upper(H, n, eta).vacuous:
                compared.append(n)
                below &= thr_r < mle_r
            yield {"H": H, "eta": eta, "n": n, "family": "entropy-ball",
                   "estimator": "threshold", "exact_risk": thr_best, "threshold_upper": upper}
        verdicts.append((below and bool(compared),
                         f"H={H}: threshold ratio < MLE ratio at every valid n "
                         f"(compared at n={compared})"))
    return verdicts


def _verdicts_cor9(args):
    from .families import CompositePrior, bayes_risk_entropy_ball_constrained
    k = 10**6
    verdicts = []
    for H in args.grid_H:
        dominated = []

        def oracle(ball, c, n, H=H, dominated=dominated):
            floor = bnd.simplex_lower(H, n, c)
            value = bayes_risk_entropy_ball_constrained(CompositePrior.from_family(ball, k), n)
            dominated.append(floor.vacuous or value >= floor.value * (1.0 - 1.0 / k))
            return value

        verdicts += yield from _rising_trend(H, _trend(args, H, args.grid_c, oracle),
                                             "simplex-constrained oracle", "constrained ratio")
        verdicts.append((all(dominated),
                         f"H={H}: constrained oracle dominates simplex floor * (1 - 1/k)"))
    return verdicts


_BALL_C = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
_BALL_N = [10**3, 10**4, 10**5, 10**6, 10**7]

# target: (its sweep, yielding rows and returning verdicts; the modules it
# calls; help; grids read, defaults).  cor6 and cor7 load numpy up front:
# most of their ~150k and ~310k pmf window points lie in windows wider than
# `binomial._MAX_LIST_WINDOW`, which are arrays, and built as lists their
# first rows' narrower windows would cost ~8 and ~16 ms more.
_REPRODUCE_TARGETS = {
    "cor2": (_verdicts_cor2, [".exact"], "sqrt(n) * uniform MLE risk -> sqrt(2(S-1)/pi)",
             {"S": [2], "n": [100, 1_000, 10_000]}),
    "cor3-4": (_verdicts_cor34, [".exact", ".families"],
               "linear scaling n = cS: MLE risk and two-point oracle",
               {"c": [1.0, 2.0, 4.0, 8.0], "n": [1_000, 10_000]}),
    "cor6": (_verdicts_cor6, [".exact", ".families", "numpy"],
             "entropy ball: ln(n) * max MLE risk / H rises past 1",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N}),
    "cor7": (_verdicts_cor7, [".exact", ".families", "numpy"],
             "entropy ball: thresholding below the MLE",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N, "eta": [1.1]}),
    "cor9": (_verdicts_cor9, [".families"],
             "entropy ball: simplex-constrained oracle rises past 1",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N}),
}


def cmd_reproduce(args):
    """A target's sweep, its modules loaded first so that no row's time counts them."""
    target, modules, *_ = _REPRODUCE_TARGETS[args.target]
    _load(*modules)
    return target(args)


def _sweep(sweep, args) -> int:
    """Runs a command's sweep: `sweep` yields its report rows as it computes
    them and returns its verdicts (None from a command that has none).  Each
    row is timed over the work since the row before it and stamped with --seed.
    The time lines, the report and the verdicts follow the sweep, so a usage
    error inside it writes nothing; the report goes to --out, or to stdout
    when no verdicts are printed there.  A ValueError out of a sweep, which
    only reproduce targets let out (the others keep it in the cell's row),
    is a grid value outside a library domain: a usage error naming the target."""
    rows, seconds = [], []
    try:
        while True:
            started = time.perf_counter()
            rows.append(next(sweep))
            seconds.append(time.perf_counter() - started)
            rows[-1]["seed"] = args.seed
    except StopIteration as stop:
        verdicts = stop.value
    except ValueError as exc:
        raise UsageError(f"{args.target}: {exc}") from exc
    for index, (row, spent) in enumerate(zip(rows, seconds), start=1):
        params = {name: value for name, value in row.items() if name in PARAM_COLUMNS}
        logger.debug("%s cell %d of %d %s: %.3f ms", args.command, index, len(rows),
                     params, spent * 1e3)
    if verdicts is None or args.out is not None:
        try:
            write_report(rows, args.format, args.out)
        except OSError as exc:
            raise UsageError(f"{args.out}: {exc.strerror}") from exc
    failed = False
    for ok, description in verdicts or ():
        print(("PASS" if ok else "FAIL") + f" [{args.target}] {description}")
        failed |= not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------

# flag: (type, help) of every --grid-<flag>, in the order `bounds` crosses them
_GRIDS = {
    "H": (float, "entropy budget values (nats)"),
    "S": (int, "support sizes"),
    "c": (float, "constants c (entropy ball: delta = cH / ln n; cor3-4: n / S)"),
    "eta": (float, "threshold exponents (> 1)"),
    "n": (int, "sample sizes"),
    "zeta": (float, "high-dimensional slack values in (0, 1]"),
}


class _GridOnce(argparse.Action):
    """Stores a --grid-* list; argparse alone would keep the last of several."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _add_grids(parser, defaults: dict) -> None:
    for name, default in defaults.items():
        kind, text = _GRIDS[name]
        parser.add_argument("--grid-" + name, dest="grid_" + name, type=kind, nargs="+",
                            default=default, action=_GridOnce,
                            help=text if default is None else text + " (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed, in [0, 2^64)")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log diagnostics (entropy-ball rounding, degenerate "
                             "threshold, cell times) to stderr; reports are unchanged")
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--estimator", action="append", choices=["empirical", "threshold"],
                       help="estimator(s) to evaluate; repeatable")
    cells.add_argument("--family", default="uniform",
                       help="family, with the grids it reads: " + "; ".join(
                           f"{name} ({', '.join(grids)})"
                           for name, (grids, _) in _FAMILIES.items())
                       + " (default: %(default)s)")
    _add_grids(cells, dict.fromkeys(["H", "S", "c", "eta", "n"]))

    parser = argparse.ArgumentParser(
        prog="l1minimax",
        description="Estimators, exact risks and minimax bounds for discrete "
                    "distribution estimation under l1 loss.")
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = sub.add_parser("bounds", parents=[common],
                            help="evaluate closed-form bounds on a parameter grid")
    _add_grids(bounds, dict.fromkeys(_GRIDS))
    sub.add_parser("exact-risk", parents=[common, cells],
                   help="exact estimator risk on named families")
    mc = sub.add_parser("mc", parents=[common, cells],
                        help="Monte-Carlo risk with exact cross-check")
    mc.add_argument("--replicates", type=int, default=10_000,
                    help="Monte-Carlo replicates per cell")
    repro = sub.add_parser("reproduce", help="scripted trend sweeps with PASS/FAIL verdicts")
    targets = repro.add_subparsers(dest="target", required=True, metavar="target",
                                   help="which scripted sweep to run; options follow it")
    for name, (_, _, text, grids) in _REPRODUCE_TARGETS.items():
        _add_grids(targets.add_parser(name, parents=[common], help=text, description=text),
                   grids)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"bounds": cmd_bounds, "exact-risk": cmd_risk,
                "mc": cmd_risk, "reproduce": cmd_reproduce}
    log = logging.getLogger("l1minimax")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        if not 0 <= args.seed < 1 << 64:
            raise UsageError(f"--seed must be in [0, 2^64), got {args.seed}")
        return _sweep(handlers[args.command](args), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def run() -> int:
    """The process entry of `python -m l1minimax` and the `l1minimax` script:
    `main()`, then `gc.freeze()` however it ends, so the interpreter's exit
    skips its final collection of every live object (outputs are written and
    closed by then; atexit handlers and stream flushes still run).  `main()`
    itself never freezes, so in-process callers keep collecting."""
    try:
        return main()
    finally:
        gc.freeze()
