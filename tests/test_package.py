"""The package namespace: each API module's `__all__` is the one declaration
of a public name, and `l1minimax` binds them on first use."""

import importlib
import pathlib
import types

import pytest

import l1minimax

API = ("bounds", "core", "estimators", "exact", "families", "montecarlo")


def _module(name):
    return importlib.import_module(f"l1minimax.{name}")


def test_all_is_the_modules_all_in_order():
    expected = [name for module in API for name in _module(module).__all__]
    assert l1minimax.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_object_of_its_module():
    for module in API:
        for name in _module(module).__all__:
            assert getattr(l1minimax, name) is getattr(_module(module), name), name


def test_dir_and_star_import_cover_all():
    assert set(l1minimax.__all__) <= set(dir(l1minimax))
    namespace = {}
    exec("from l1minimax import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(l1minimax.__all__)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


@pytest.mark.parametrize("name", sorted(
    path.stem for path in pathlib.Path(l1minimax.__file__).parent.glob("*.py")
    if not path.stem.startswith("__")))
def test_submodule_names_resolve_to_the_submodule(name):
    assert name in l1minimax._SUBMODULES  # so it resolves before its first import too
    assert getattr(l1minimax, name) is _module(name)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'l1minimax' has no attribute 'no_such_name'$") as info:
        l1minimax.no_such_name
    assert info.value.name == "no_such_name"
    assert getattr(l1minimax, "no_such_name", None) is None


# One value of each record type, by its repr.
VALUES = {
    "ProbabilityVector(probs=array([0.5, 0.5]))": lambda: l1minimax.ProbabilityVector([0.5, 0.5]),
    "CompressedFamily(atoms=((0.25, 4),))": lambda: l1minimax.CompressedFamily([(0.25, 4.0)]),
    "ThresholdConfig(n=10, eta=1.5)": lambda: l1minimax.ThresholdConfig(10.0),
    "ThresholdRule(cut=0.0, n=None)": lambda: l1minimax.ThresholdRule(0.0),
    "CoordinatewiseEstimator(name='empirical')": l1minimax.empirical_estimator,
    "McConfig(replicates=100, master_seed=7)": lambda: l1minimax.McConfig(100.0, 7),
    "McRiskEstimate(mean=0.5, std_error=0.0, ci_lo=0.5, ci_hi=0.5, replicates=100)":
        lambda: l1minimax.montecarlo.McRiskEstimate(0.5, 0.0, 0.5, 0.5, 100),
    "BoundValue(value=inf, vacuous=True)": lambda: l1minimax.BoundValue(float("inf"), True),
    "EntropyBallFamily(delta=0.3, S_prime=4, family=CompressedFamily(atoms=((0.075, 4), "
    "(0.7, 1))))": lambda: l1minimax.entropy_ball_family(1.0, 0.3),
    "CompositePrior(delta=0.3, S_prime=4, k=2)": lambda: l1minimax.CompositePrior(0.3, 4.0, 2),
}


@pytest.mark.parametrize("text", VALUES)
def test_value_types_are_immutable_namedtuples(text):
    value = VALUES[text]()
    assert repr(value) == text  # an estimator's repr leaves out its fn
    assert isinstance(value, tuple) and type(value)(*value) == value
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None
