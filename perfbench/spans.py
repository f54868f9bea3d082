"""Outside-in tracing of l1minimax layers.

The tracer replaces module attributes of the imported library with timing
wrappers; the library itself is not modified.  Each wrapped call records a
span (name, enter, start, end, exit, parent span, cell id) in flat arrays.
`start`..`end` is the wrapped call; `enter`..`exit` also covers the
wrapper's own bookkeeping, and is what a parent subtracts from its
duration, so tracer cost never lands in any layer's self time.

A hook whose module or attribute no longer exists (say, a private helper
was renamed) is reported as absent and the rest of the trace goes on.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np


def _inverse_counts(args, kwargs, result):
    budgets = np.asarray(args[1])
    return {"draws": int(np.size(args[0])), "distinct_budgets": int(np.unique(budgets).size)}


def _uniform_counts(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _block_counts(args, kwargs, result):
    return {"draws": int(args[2]), "occupied": int(np.size(result[0]))}


def _window_counts(args, kwargs, result):
    return {"points": int(np.size(result))}


def _mc_counts(args, kwargs, result):
    return {"replicates": int(result.replicates)}


def _render_counts(args, kwargs, result):
    return {"rows": len(args[0]), "bytes": len(result.encode("utf-8"))}


def _estimator_counts(args, kwargs, result):
    return {"elems": int(np.size(result))}


# (module, attribute, span name, counter).  Counters read the call's
# arguments and result after the call has been timed.
HOOKS = (
    ("l1minimax.cli", "main", "cli.main", None),
    ("l1minimax.families", "entropy_ball_family", "families.entropy_ball_family", None),
    ("l1minimax.montecarlo", "mc_risk", "montecarlo.mc_risk", _mc_counts),
    ("l1minimax.montecarlo", "_conditional_chain", "montecarlo.conditional_chain", None),
    ("l1minimax.montecarlo", "_binomial_inverse", "montecarlo.binomial_inverse",
     _inverse_counts),
    ("l1minimax.montecarlo", "_block_cells", "montecarlo.block_cells", _block_counts),
    ("l1minimax.rng", "uniforms", "rng.uniforms", _uniform_counts),
    ("l1minimax.exact", "estimator_risk_exact", "exact.estimator_risk_exact", None),
    ("l1minimax.exact", "binomial_expectation", "exact.binomial_expectation", None),
    ("l1minimax.exact", "_window_pmf", "exact.window_pmf", _window_counts),
    ("l1minimax.report", "render_csv", "report.render", _render_counts),
    ("l1minimax.report", "render_json", "report.render", _render_counts),
)
ESTIMATOR_FACTORIES = ("empirical_estimator", "threshold_estimator")
ESTIMATOR_SPAN = "estimators"
BOUNDS_SPAN = "bounds"


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.cell_of = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.exit = array("d")
        self.counts: dict = {}
        self.stack: list = []
        self.cell = -1
        self.absent: list = []
        self.counter_errors: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = {}
        return self._ids[name]

    def wrap(self, fn, name: str, counter=None):
        """A callable that runs `fn` inside a span named `name`."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            enter = perf_counter()
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.cell_of.append(self.cell)
            self.enter.append(enter)
            self.start.append(0.0)
            self.end.append(0.0)
            self.exit.append(0.0)
            self.stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.end[idx] = end
                self.exit[idx] = end
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
                self.exit[idx] = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, counter, args, kwargs, result):
        try:
            values = counter(args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.counter_errors.append(f"{name}: {exc!r}")
            return
        bucket = self.counts[name]
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    def wrap_estimator(self, estimator):
        """The same estimator, rebuilt around a timed per-count rule."""
        cls = type(estimator)
        return cls(estimator.name, self.wrap(estimator.fn, ESTIMATOR_SPAN, _estimator_counts))

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every l1minimax module attribute bound to `original` at
        `replacement`, so re-exports and `from x import y` names see it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "l1minimax" or modname.startswith("l1minimax.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _lookup(self, modname: str, attr: str):
        try:
            module = importlib.import_module(modname)
        except ImportError:
            return None
        return getattr(module, attr, None)

    def install(self):
        """Patch every hook that exists; list the others in `absent`."""
        self.absent = []
        for modname, attr, name, counter in HOOKS:
            fn = self._lookup(modname, attr)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(fn, self.wrap(fn, name, counter))
        bounds = importlib.import_module("l1minimax.bounds")
        for attr in getattr(bounds, "__all__", ()):
            fn = getattr(bounds, attr, None)
            if inspect.isfunction(fn):
                self._replace_everywhere(fn, self.wrap(fn, BOUNDS_SPAN))
        for attr in ESTIMATOR_FACTORIES:
            factory = self._lookup("l1minimax.estimators", attr)
            if factory is None:
                self.absent.append(f"l1minimax.estimators.{attr}")
                continue
            self._replace_everywhere(factory, self._traced_factory(factory))

    def _traced_factory(self, factory):
        def build(*args, **kwargs):
            return self.wrap_estimator(factory(*args, **kwargs))
        return build

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total and self seconds, summed counters,
        and window doublings (extra `_window_pmf` calls per expectation)."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **self.counts[name]}
               for name in self.names}
        if not len(self.name_id):
            return out
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        cover = np.frombuffer(self.exit) - np.frombuffer(self.enter)
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=cover[has_parent],
                                  minlength=name_id.size)
        self_s = duration - child_cover
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        total_s = np.bincount(name_id, weights=duration, minlength=size)
        self_by_name = np.bincount(name_id, weights=self_s, minlength=size)
        for i, name in enumerate(self.names):
            out[name].update(calls=int(calls[i]), total_s=float(total_s[i]),
                             self_s=float(self_by_name[i]))
        if "exact.window_pmf" in self._ids and "exact.binomial_expectation" in self._ids:
            windows = name_id == self._ids["exact.window_pmf"]
            per_parent = np.bincount(parent[windows & has_parent], minlength=name_id.size)
            expectations = name_id == self._ids["exact.binomial_expectation"]
            extra = np.maximum(per_parent[expectations] - 1, 0)
            out["exact.binomial_expectation"]["window_doublings"] = int(extra.sum())
        return out


def merge_totals(parts) -> dict:
    """Sum `Tracer.totals()` dicts, as from several traced processes."""
    merged: dict = {}
    for part in parts:
        for name, fields in part.items():
            bucket = merged.setdefault(name, {})
            for key, value in fields.items():
                bucket[key] = bucket.get(key, 0) + value
    return merged


def _field(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict, passes: int) -> dict:
    """Per-layer metrics, per traced pass, from merged span totals."""
    def per_pass(name, key):
        return _field(totals, name, key) / passes

    inv, uni, blk = "montecarlo.binomial_inverse", "rng.uniforms", "montecarlo.block_cells"
    bexp, win = "exact.binomial_expectation", "exact.window_pmf"
    return {
        f"{inv}.calls": per_pass(inv, "calls"),
        f"{inv}.draws": per_pass(inv, "draws"),
        f"{inv}.self_s": per_pass(inv, "self_s"),
        f"{inv}.ns_per_draw": 1e9 * _ratio(_field(totals, inv, "self_s"),
                                           _field(totals, inv, "draws")),
        f"{inv}.distinct_budgets": per_pass(inv, "distinct_budgets"),
        f"{inv}.draws_per_budget": _ratio(_field(totals, inv, "draws"),
                                          _field(totals, inv, "distinct_budgets")),
        f"{uni}.calls": per_pass(uni, "calls"),
        f"{uni}.draws": per_pass(uni, "draws"),
        f"{uni}.self_s": per_pass(uni, "self_s"),
        f"{uni}.ns_per_draw": 1e9 * _ratio(_field(totals, uni, "self_s"),
                                           _field(totals, uni, "draws")),
        f"{blk}.calls": per_pass(blk, "calls"),
        f"{blk}.draws": per_pass(blk, "draws"),
        f"{blk}.occupied": per_pass(blk, "occupied"),
        f"{blk}.occupied_ratio": _ratio(_field(totals, blk, "occupied"),
                                        _field(totals, blk, "draws")),
        f"{blk}.self_s": per_pass(blk, "self_s"),
        "montecarlo.conditional_chain.self_s": per_pass("montecarlo.conditional_chain",
                                                        "self_s"),
        "montecarlo.mc_risk.self_s": per_pass("montecarlo.mc_risk", "self_s"),
        "montecarlo.replicates": per_pass("montecarlo.mc_risk", "replicates"),
        "estimators.calls": per_pass(ESTIMATOR_SPAN, "calls"),
        "estimators.elems": per_pass(ESTIMATOR_SPAN, "elems"),
        "estimators.self_s": per_pass(ESTIMATOR_SPAN, "self_s"),
        "exact.estimator_risk_exact.self_s": per_pass("exact.estimator_risk_exact",
                                                      "self_s"),
        f"{bexp}.calls": per_pass(bexp, "calls"),
        f"{bexp}.self_s": per_pass(bexp, "self_s"),
        f"{win}.calls": per_pass(win, "calls"),
        f"{win}.points": per_pass(win, "points"),
        f"{win}.self_s": per_pass(win, "self_s"),
        "exact.window_doublings": per_pass(bexp, "window_doublings"),
        "exact.points_per_atom": _ratio(_field(totals, win, "points"),
                                        _field(totals, bexp, "calls")),
        "families.entropy_ball_family.calls": per_pass("families.entropy_ball_family",
                                                       "calls"),
        "families.entropy_ball_family.self_s": per_pass("families.entropy_ball_family",
                                                        "self_s"),
        "bounds.calls": per_pass(BOUNDS_SPAN, "calls"),
        "bounds.self_s": per_pass(BOUNDS_SPAN, "self_s"),
        "report.rows": per_pass("report.render", "rows"),
        "report.bytes": per_pass("report.render", "bytes"),
        "report.render_s": per_pass("report.render", "total_s"),
        "cli.calls": per_pass("cli.main", "calls"),
        "cli.main_s": per_pass("cli.main", "total_s"),
    }
