import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import stirlingb
from stirlingb import permcore

MODULES = ["stirlingb"] + [
    "stirlingb." + info.name for info in pkgutil.iter_modules(stirlingb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import_gives_every_layer_export():
    # the package loads its layers on first use; `import *` reads __all__
    namespace = {}
    exec("from stirlingb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stirlingb.__all__)
    for layer in ("fps", "permcore", "riordan", "sequences"):
        module = getattr(stirlingb, layer)
        assert module is sys.modules["stirlingb." + layer]
        for name in module.__all__:
            assert namespace[name] is getattr(module, name) is getattr(stirlingb, name)


def _tree(name):
    path = importlib.import_module(name).__file__
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    # python -O strips assert statements, so a library check must raise instead
    lines = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (name, lines)


def _imports(name):
    """The modules that module `name` imports, anywhere in it."""
    imported = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return imported


def _imports_beyond_stdlib(name):
    """The modules that module `name` imports outside the standard library."""
    stdlib = sys.stdlib_module_names
    return {name for name in _imports(name) if name.split(".")[0] not in stdlib}


def test_oracle_imports_only_stdlib():
    # the oracle is the route every other one is checked against, so it
    # shares no code with them, not even the record base
    assert _imports_beyond_stdlib("stirlingb.permcore") == set()


def test_oracle_exports_only_the_oracle():
    # the naive object model is the tests' reference (tests/naive.py), not API
    assert sorted(permcore.__all__) == [
        "DEFAULT_MAX_ENUM",
        "EnumerationLimitError",
        "check_bound",
        "oracle_total",
        "oracle_triangle",
    ]


def test_sequences_imports_only_stdlib_the_record_base_and_fps():
    # the recurrences and closed forms are a route of their own: the Riordan
    # arrays they are checked against stay out of them
    assert _imports_beyond_stdlib("stirlingb.sequences") == {"._record", ".fps"}


def test_riordan_imports_only_stdlib_the_record_base_and_fps():
    # the array route builds its window from its own weights: the cycle
    # weights of the recurrences in sequences are never shared with it
    assert _imports_beyond_stdlib("stirlingb.riordan") == {"._record", ".fps"}


def _module_level_names(tree):
    """(name, node) for each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _reads(tree):
    """Each node of `tree` that reads a name, as (name, node)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_every_unexported_name_is_read():
    # a module-level name outside its module's __all__ is not API: if no code
    # in the package reads it, other than its own definition, it is dead
    trees = {name: _tree(name) for name in MODULES}
    reads = {}
    for tree in trees.values():
        for name, node in _reads(tree):
            reads.setdefault(name, []).append(node)
    dead = []
    for module, tree in trees.items():
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        for name, node in _module_level_names(tree):
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            own = set(map(id, ast.walk(node)))
            if all(id(read) in own for read in reads.get(name, ())):
                dead.append((module, name))
    assert dead == []


def _imported_names(tree):
    """Each name a module-level import of `tree` binds, but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    # an imported name that its own module never reads is a stale import;
    # reads count per module, since two modules may import the same name
    tree = _tree(name)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= set(getattr(importlib.import_module(name), "__all__", ()))
    assert [bound for bound in _imported_names(tree) if bound not in read] == []


def test_every_series_method_is_read():
    # a public method or property of the series type that no code reads is
    # dead surface: each must be read as an attribute somewhere in the
    # package or the benchmark, outside its own definition
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = [_tree(name) for name in MODULES]
    trees += [ast.parse(path.read_text(encoding="utf-8"), str(path))
              for path in sorted(bench.glob("*.py"))]
    reads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    (series,) = [node for node in _tree("stirlingb.fps").body
                 if isinstance(node, ast.ClassDef) and node.name == "FormalPowerSeries"]
    methods = [node for node in series.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert methods  # the walk found the class body
    unread = []
    for method in methods:
        own = set(map(id, ast.walk(method)))
        if all(id(node) in own for node in reads if node.attr == method.name):
            unread.append(method.name)
    assert unread == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_argparse(name):
    # the CLI reads argv from its own command table: argparse, and the gettext
    # and locale modules it loads, cost every command's start-up
    assert "argparse" not in {module.split(".")[0] for module in _imports(name)}
