"""The package exports exactly its modules' public names."""

import inspect

import gridfilter as gf
from gridfilter import (bounds, concentration, config, csvio, errors, filtering, harness,
                        likelihood, model, quantize, registry)

MODULES = (bounds, concentration, config, csvio, errors, filtering, harness, likelihood,
           model, quantize, registry)


def test_package_all_joins_the_module_lists():
    assert gf.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(gf.__all__) == len(set(gf.__all__)) == 69


def test_each_exported_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(gf, name) is obj
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_every_public_definition_is_exported():
    for module in MODULES:
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == module.__name__}
        assert defined <= set(module.__all__), module.__name__
