"""The package exports exactly its modules' public names, and its layers
import only downward."""

import ast
import inspect
from pathlib import Path

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


SRC = Path(gf.__file__).resolve().parent
# Modules below the registry: they may not import it, nor the CLI above it.
LOWER = ("filtering", "harness", "likelihood", "quantize", "model")


def imported_modules(tree):
    """Last dotted part of every module an AST imports from, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "gridfilter"):
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def named_identifiers(tree):
    """Every identifier an AST uses: names, attributes and imported names."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)})


def test_lower_layers_import_neither_the_registry_nor_the_cli():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert set(LOWER) <= set(trees)
    for name in LOWER:
        assert not imported_modules(trees[name]) & {"registry", "cli"}, name
    naming = [name for name, tree in trees.items()
              if "FiniteStateKernel" in named_identifiers(tree)]
    assert naming == ["registry"]
