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
