"""Command-line harness for reproducible experiment sweeps.

Subcommands: `bounds` evaluates every closed-form bound on a parameter
grid, `exact-risk` computes enumeration-based risks on named families,
`mc` cross-validates them by seeded Monte Carlo, and `reproduce` runs
scripted trend sweeps with PASS/FAIL verdicts.

Reruns with identical arguments produce byte-identical output files, so
diagnostics, each report row's wall-clock time among them, go to stderr
with -v: `_run_cell` times a cell, `cmd_reproduce` a row that a `reproduce`
target (a generator) yields.  Cells run in order, in-process; `mc_risk`
splits a large `mc` cell's replicates over CPUs itself.

Only `bounds` and `report` load with this module: each command imports the
numeric modules it calls, before it times its first cell, so `bounds`, `-h`
and argparse's usage errors never import numpy.
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
from .report import ReportRow, write_report

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
        raise ValueError("entropy-ball needs n >= 2")
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
            values[name] = bound.evaluate(*args)
        except ValueError:
            continue
    return values


# ---------------------------------------------------------------------------
# subcommands

def _load(*modules: str) -> None:
    """Import the package's numeric `modules` that a command calls before it
    times its first cell, so that no cell's time counts loading them."""
    for module in modules:
        importlib.import_module(f"{__package__}.{module}")


def _write_report(rows, args) -> None:
    """Write `rows` as --format to --out; an unwritable --out is a usage error."""
    try:
        write_report(rows, args.format, args.out)
    except OSError as exc:
        raise UsageError(f"{args.out}: {exc.strerror}") from exc


def _log_cell_time(args, index: int, total: int, params: dict, seconds: float) -> None:
    """The DEBUG line of report row `index` of `total`: the wall-clock time of
    the work behind it."""
    logger.debug("%s cell %d of %d %s: %.3f ms", args.command, index, total, params,
                 seconds * 1e3)


def _run_cell(params: dict, fill, seed: int):
    """(report row, seconds of its work) of a (params, fill) cell; a cell
    whose fill raises keeps what it recorded so far plus the error text."""
    row = ReportRow(params=params, seed=seed)
    started = time.perf_counter()
    try:
        fill(row)
    except Exception as exc:  # keep the sweep going, record the cell
        row.error = str(exc)
    return row, time.perf_counter() - started


def _evaluate(cells, args) -> int:
    """One report row per (params, fill) cell, each run and timed in cell order."""
    rows = []
    for index, (params, fill) in enumerate(cells, start=1):
        row, seconds = _run_cell(params, fill, args.seed)
        _log_cell_time(args, index, len(cells), params, seconds)
        rows.append(row)
    _write_report(rows, args)
    return 0


def _fill_bounds(row) -> None:
    row.bounds = _cell_bounds(**row.params)


def cmd_bounds(args) -> int:
    names = [name for name in _GRIDS if getattr(args, "grid_" + name)]
    if not names:
        raise UsageError("bounds needs at least one --grid-* parameter")
    return _evaluate([(point, _fill_bounds) for point in _grid_points(args, names)], args)


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


def cmd_risk(args) -> int:
    """`exact-risk` and `mc`; mc adds a Monte-Carlo estimate seeded by the
    cell index and checks the exact risk against its interval."""
    from .estimators import DEFAULT_ETA
    from .exact import estimator_risk_exact
    _load("families")  # --family entropy-ball's source
    with_mc = args.command == "mc"
    if with_mc:
        from .montecarlo import McConfig, mc_risk
        from .rng import derive_seed
        try:
            McConfig(args.replicates, args.seed)
        except ValueError as exc:  # wrong for every cell: a bad invocation
            raise UsageError(str(exc)) from exc

    def fill(row, build_family, index) -> None:
        params = row.params
        n, eta = params["n"], params["eta"]
        fam = build_family()
        estimator = _build_estimator(params["estimator"], n, eta)
        if with_mc:
            cfg = McConfig(args.replicates, derive_seed(args.seed, index))
            est = mc_risk(fam, estimator, n, cfg)
            row.mc_mean, row.mc_ci_lo, row.mc_ci_hi = est.mean, est.ci_lo, est.ci_hi
        row.exact_risk = estimator_risk_exact(fam, estimator, n)
        if with_mc:
            row.mc_within_ci = bool(est.ci_lo <= row.exact_risk <= est.ci_hi)
        row.bounds = _cell_bounds(**params)

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
    return _evaluate(cells, args)


# ---------------------------------------------------------------------------
# scripted trend sweeps

def _grid(args, flag: str, ok, domain: str) -> list:
    """A sweep's --grid-<flag> values; one outside `domain` is a usage error."""
    values = getattr(args, "grid_" + flag)
    if not all(map(ok, values)):
        raise UsageError(f"{args.target}: --grid-{flag} values must satisfy {domain}")
    return values


def _exact_uniform_mle_risk(S: int, n: int) -> float:
    from .estimators import empirical_estimator
    from .exact import estimator_risk_exact
    return estimator_risk_exact(_uniform_family(S), empirical_estimator(), n)


def _verdicts_cor2(args):
    S_values = _grid(args, "S", lambda S: S >= 2, "S >= 2")
    ns = sorted(_grid(args, "n", lambda n: n >= 1, "n >= 1"))
    verdicts = []
    for S in S_values:
        target = bnd.classical_constant(S)
        gaps = []
        for n in ns:
            risk = _exact_uniform_mle_risk(S, n)
            gaps.append(abs(math.sqrt(n) * risk - target))
            yield ReportRow(
                params={"S": S, "n": n, "family": "uniform", "estimator": "empirical"},
                exact_risk=risk, bounds=_cell_bounds(S=S, n=n), seed=args.seed)
        verdicts.append((gaps[-1] <= 0.01,
                         f"S={S}: final |sqrt(n) risk - constant| = {gaps[-1]:.3e} <= 0.01"))
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        verdicts.append((decreasing, f"S={S}: gap decreases monotonically over n={ns}"))
    return verdicts


def _verdicts_cor34(args):
    from .families import bayes_risk_two_point
    cs = _grid(args, "c", lambda c: c > 0, "c > 0")
    ns = sorted(_grid(args, "n", lambda n: n >= 1, "n >= 1"))
    floor_constant = math.sqrt(math.e) / 8.0
    upper_ok, lower_ok = True, True
    for c, n in itertools.product(cs, ns):
        S = max(2, round(n / c))
        risk = _exact_uniform_mle_risk(S, n)
        oracle = bayes_risk_two_point(S, n)
        upper_ok &= math.sqrt(c) * risk <= 1.0 + 1e-12
        lower_ok &= math.sqrt(c) * oracle >= floor_constant - 0.02
        yield ReportRow(
            params={"S": S, "c": c, "n": n, "family": "uniform", "estimator": "empirical"},
            exact_risk=risk,
            bounds={"mle_upper_simple": bnd.mle_upper_simple(S, n)},
            seed=args.seed)
    return [
        (upper_ok, "sqrt(c) * exact uniform risk <= 1 at every linear-scaling cell"),
        (lower_ok, f"sqrt(c) * two-point Bayes oracle >= sqrt(e)/8 - 0.02 "
                   f"(= {floor_constant - 0.02:.4f}) at every cell"),
    ]


def _trend(args, H: float, cs: list, risk):
    """(n, max, ln(n) * max / H) per n of the sorted n grid, max being the max
    over c in `cs` of risk(ball, c, n) (ball: the entropy ball at
    delta = cH / ln n); cor6/7/9 check these ratios."""
    def ball(c, n):
        try:
            return _entropy_ball(H, c, n)
        except ValueError as exc:  # no entropy ball at this grid point
            raise UsageError(f"{args.target}: H={H:g}, c={c:g}, n={n}: {exc}") from exc

    for n in sorted(args.grid_n):
        best = max(risk(ball(c, n), c, n) for c in cs)
        yield n, best, math.log(n) * best / H


def _ball_trend(args, H: float, est_name: str, eta: Optional[float] = None):
    """`_trend` of the exact risk on the entropy-ball family at delta = cH / ln n;
    the estimator depends on n alone and is built (and warns) once per n."""
    from .exact import estimator_risk_exact
    estimator = functools.lru_cache(None)(lambda n: _build_estimator(est_name, n, eta))

    def risk(ball, c, n):
        return estimator_risk_exact(ball.family, estimator(n), n)
    return _trend(args, H, args.grid_c, risk)


def _rising_trend(args, H: float, trend, quantity: str, ratio: str):
    """Yields cor6's and cor9's rows at one H, the max risk per n of a `_trend`,
    and returns their verdicts: ln(n) * `quantity` / H increases over n and
    ends above 1."""
    ns, ratios = [], []
    for n, best, n_ratio in trend:
        ns.append(n)
        ratios.append(n_ratio)
        yield ReportRow(
            params={"H": H, "n": n, "family": "entropy-ball", "estimator": "empirical"},
            exact_risk=best, seed=args.seed)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    return [(increasing, f"H={H}: ln(n) * {quantity} / H increases over n={ns}"),
            (ratios[-1] > 1.0, f"H={H}: final {ratio} {ratios[-1]:.4f} exceeds 1.0")]


def _verdicts_cor6(args):
    verdicts = []
    for H in args.grid_H:
        verdicts += yield from _rising_trend(args, H, _ball_trend(args, H, "empirical"),
                                             "max-c MLE risk", "ratio")
    return verdicts


def _verdicts_cor7(args):
    eta, *more = _grid(args, "eta", lambda eta: eta > 1, "eta > 1")
    if more:
        raise UsageError(f"{args.target}: --grid-eta takes one value")
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
            yield ReportRow(
                params={"H": H, "eta": eta, "n": n, "family": "entropy-ball",
                        "estimator": "threshold"},
                exact_risk=thr_best,
                bounds={"threshold_upper": upper},
                seed=args.seed)
        verdicts.append((below and bool(compared),
                         f"H={H}: threshold ratio < MLE ratio at every valid n "
                         f"(compared at n={compared})"))
    return verdicts


def _verdicts_cor9(args):
    from .families import CompositePrior, bayes_risk_entropy_ball_constrained
    cs = _grid(args, "c", lambda c: 0 < c < 1, "0 < c < 1")
    k = 10**6
    verdicts = []
    for H in args.grid_H:
        dominated = []

        def oracle(ball, c, n, H=H, dominated=dominated):
            try:
                floor = bnd.simplex_lower(H, n, c)
            except ValueError as exc:  # no simplex floor at this grid point
                raise UsageError(f"{args.target}: H={H:g}, n={n}: {exc}") from exc
            value = bayes_risk_entropy_ball_constrained(CompositePrior.from_family(ball, k), n)
            dominated.append(floor.vacuous or value >= floor.value * (1.0 - 1.0 / k))
            return value

        verdicts += yield from _rising_trend(args, H, _trend(args, H, cs, oracle),
                                             "simplex-constrained oracle", "constrained ratio")
        verdicts.append((all(dominated),
                         f"H={H}: constrained oracle dominates simplex floor * (1 - 1/k)"))
    return verdicts


_BALL_C = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
_BALL_N = [10**3, 10**4, 10**5, 10**6, 10**7]

# target: (its sweep, yielding rows and returning verdicts; the modules it
# calls; help; grids read, defaults)
_REPRODUCE_TARGETS = {
    "cor2": (_verdicts_cor2, ["exact"], "sqrt(n) * uniform MLE risk -> sqrt(2(S-1)/pi)",
             {"S": [2], "n": [100, 1_000, 10_000]}),
    "cor3-4": (_verdicts_cor34, ["exact", "families"],
               "linear scaling n = cS: MLE risk and two-point oracle",
               {"c": [1.0, 2.0, 4.0, 8.0], "n": [1_000, 10_000]}),
    "cor6": (_verdicts_cor6, ["exact", "families"],
             "entropy ball: ln(n) * max MLE risk / H rises past 1",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N}),
    "cor7": (_verdicts_cor7, ["exact", "families"], "entropy ball: thresholding below the MLE",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N, "eta": [1.1]}),
    "cor9": (_verdicts_cor9, ["families"],
             "entropy ball: simplex-constrained oracle rises past 1",
             {"H": [1.0], "c": _BALL_C, "n": _BALL_N}),
}


def cmd_reproduce(args) -> int:
    """Run a target's sweep.  A target is a generator that yields its report
    rows as it computes them and returns its verdicts; each row is timed
    here, over the work since the row before it."""
    target, modules, *_ = _REPRODUCE_TARGETS[args.target]
    _load(*modules)
    sweep = target(args)
    rows, seconds = [], []
    try:
        while True:
            started = time.perf_counter()
            rows.append(next(sweep))
            seconds.append(time.perf_counter() - started)
    except StopIteration as done:
        verdicts = done.value
    for index, (row, spent) in enumerate(zip(rows, seconds), start=1):
        _log_cell_time(args, index, len(rows), row.params, spent)
    if args.out is not None:
        _write_report(rows, args)
    failed = False
    for ok, description in verdicts:
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
        return handlers[args.command](args)
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
