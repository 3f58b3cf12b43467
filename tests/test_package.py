"""The package exports exactly its modules' public names, and its layers
import only downward."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import gridfilter as gf
from gridfilter import (bounds, concentration, config, csvio, errors, filtering, harness,
                        likelihood, model, quantize, registry)

MODULES = (bounds, concentration, config, csvio, errors, filtering, harness, likelihood,
           model, quantize, registry)


def test_package_all_joins_the_module_lists():
    assert gf.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(gf.__all__) == len(set(gf.__all__)) == 70


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


def callers(tree, name):
    """The top-level functions and methods of an AST that call ``name``."""
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {node.name for node in defs for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


def test_one_generator_steps_the_filter_and_owns_its_fft_buffers():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    stepping = {(module, caller) for module, tree in trees.items()
                for caller in callers(tree, "grid_filter_step")}
    assert stepping == {("filtering", "_steps")}
    buffering = {(module, caller) for module, tree in trees.items() if module != "quantize"
                 for caller in callers(tree, "fft_buffers")}
    assert buffering == {("filtering", "_steps")}


def docstring_and_comment_lines(text):
    """Non-blank docstring lines (by ``ast``) and comment-only lines (by
    ``tokenize``) of one module's source, as a set of line numbers."""
    lines = text.splitlines()
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.update(i for i in range(first.lineno, first.end_lineno + 1)
                             if lines[i - 1].strip())
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = tok.start
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            found.add(row)
    return found


def test_docstrings_and_comments_stay_within_their_line_budget():
    total = sum(len(docstring_and_comment_lines(path.read_text())) for path in SRC.glob("*.py"))
    assert 0 < total <= 500


def test_the_observation_bound_and_theta_each_have_one_home():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}

    def comparisons(node):
        return [c for c in ast.walk(node)
                if isinstance(c, ast.Compare) and "_Y_MAX" in named_identifiers(c)]

    check = next(node for node in trees["filtering"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_check_inputs")
    assert sum(len(comparisons(tree)) for tree in trees.values()) == len(comparisons(check)) > 0
    assert callers(trees["filtering"], "_check_inputs") == {
        "grid_filter_step", "filter_steps", "path_sum_oracle"}
    theta = {(module, caller) for module, tree in trees.items()
             for caller in callers(tree, "_theta")}
    assert theta == {("bounds", "theta_bound"), ("harness", "kg_evaluate")}
    assert any(isinstance(node, ast.ImportFrom) and node.module == "bounds"
               and "_theta" in {alias.name for alias in node.names}
               for node in trees["harness"].body)
