import ast
import importlib
import pkgutil
import sys

import pytest

import stirlingb

MODULES = ["stirlingb"] + [
    "stirlingb." + info.name for info in pkgutil.iter_modules(stirlingb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _tree(name):
    path = importlib.import_module(name).__file__
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    # python -O strips assert statements, so a library check must raise instead
    lines = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (name, lines)


def _imports_beyond_stdlib(name):
    """The modules that module `name` imports outside the standard library."""
    imported = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}


def test_oracle_imports_only_stdlib_and_the_record_base():
    # the oracle is the route every other one is checked against, so it may
    # share the record base with them and nothing else
    assert _imports_beyond_stdlib("stirlingb.permcore") == {"._record"}


def test_sequences_imports_only_stdlib_the_record_base_and_fps():
    # the recurrences and closed forms are a route of their own: the Riordan
    # arrays they are checked against stay out of them
    assert _imports_beyond_stdlib("stirlingb.sequences") == {"._record", ".fps"}


def test_riordan_imports_only_stdlib_the_record_base_and_fps():
    # the array route builds its window from its own weights: the cycle
    # weights of the recurrences in sequences are never shared with it
    assert _imports_beyond_stdlib("stirlingb.riordan") == {"._record", ".fps"}


def test_every_private_helper_is_used():
    # a module-level _name function or class that no code in the package
    # reads is dead: nothing outside the package may rely on it
    defined, used = set(), set()
    for name in MODULES:
        tree = _tree(name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add((name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(pair for pair in defined if pair[1] not in used) == []
