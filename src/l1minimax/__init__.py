"""Estimation of discrete distributions under l1 loss.

Estimators (empirical and hard-thresholding), exact and Monte-Carlo risk
computation, closed-form minimax bounds, and the worst-case families and
Bayes-risk oracles needed to verify them at desk scale.

Importing the package loads none of its modules (PEP 562): a submodule
loads when it is first reached (`l1minimax.cli`, `from l1minimax import
montecarlo`), and the first public name reached loads the six modules of
`_API` and binds their `__all__` here.  So `python -m l1minimax bounds`
never imports numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the modules whose `__all__`, in this order, make up the package's `__all__`
_API = ("bounds", "core", "estimators", "exact", "families", "montecarlo")
_SUBMODULES = frozenset(_API + ("binomial", "cli", "report", "rng"))


def _load_api() -> None:
    names = []
    for modname in _API:
        module = _import_module(f"{__name__}.{modname}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        _load_api()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}", name=name)


def __dir__() -> list:
    if "__all__" not in globals():
        _load_api()
    return sorted(globals())
