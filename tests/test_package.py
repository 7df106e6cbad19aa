"""Package hygiene: every exported name exists, the package's names are its
exporting modules' `__all__` lists, no module imports a name it never uses, none
imports a private name from a sibling module, and every public function or
class is used by the package or the benchmark, and no `cli._cmd_*` handler
returns a value.  The checks are small `ast` walks, so they need no linter
installed."""

import ast
import importlib
import pathlib
import types

import pytest

import plasmakit

PACKAGE = pathlib.Path(plasmakit.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"plasmakit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def exporters():
    """The modules whose `__all__` lists are the package's names."""
    return [importlib.import_module(f"plasmakit.{name}") for name in plasmakit._EXPORTERS]


def test_init_exports_only_modules_with_all():
    modules = exporters()
    assert modules and [m.__name__ for m in modules if not hasattr(m, "__all__")] == []


def test_package_names_are_the_union_of_the_all_lists():
    listed = [name for module in exporters() for name in module.__all__]
    assert len(listed) == len(set(listed))  # no name in two lists
    assert plasmakit.__all__ == listed
    assert [name for module in exporters() for name in module.__all__
            if getattr(plasmakit, name) is not getattr(module, name)] == []
    star = {}
    exec("from plasmakit import *", star)
    assert set(star) - {"__builtins__"} == set(listed)
    public = {name for name in dir(plasmakit) if not name.startswith("_")
              and not isinstance(getattr(plasmakit, name), types.ModuleType)}
    assert public == set(listed)
    assert not hasattr(plasmakit, "no_such_name")


def unused_imports(module_tree, exported=()):
    """name -> line of every imported name (except `from __future__`) that
    the module neither reads nor lists in `exported`."""
    bound = {}
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(module_tree) if isinstance(node, ast.Name)}
    return {n: line for n, line in bound.items() if n not in used and n not in exported}


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    exported = getattr(importlib.import_module(f"plasmakit.{name}"), "__all__", ())
    assert unused_imports(tree(name), exported) == {}


def test_unused_import_check_sees_a_leftover():
    leftover = ast.parse("from __future__ import annotations\nimport math\n"
                         "import numpy as np\nfrom os import path, sep\nx = np.zeros(1)\n")
    assert unused_imports(leftover) == {"math": 2, "path": 4, "sep": 4}
    assert unused_imports(leftover, exported=("sep",)) == {"math": 2, "path": 4}


def private_imports(module_tree):
    """(module, name) of every underscore name imported from a sibling module."""
    return [(node.module, alias.name) for node in ast.walk(module_tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports_from_siblings(name):
    assert private_imports(tree(name)) == []


def test_private_import_check_sees_one():
    module_tree = ast.parse("from . import files\nfrom .acquisition import Samples, _collect\n"
                            "from os import _exit\n")
    assert private_imports(module_tree) == [("acquisition", "_collect")]


# Public names nothing in the package or the benchmark calls, each kept on purpose.
UNCALLED_ON_PURPOSE = {
    "transfer_function": "acceptance criterion 3 calls it, and the ROADMAP keeps it",
}


def dead_helpers(definers, users):
    """Public top-level defs and classes of the `definers` trees that no
    Name id or Attribute attr of the `users` trees mentions."""
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for t in users for node in ast.walk(t) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(node.name for t in definers for node in t.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def test_every_public_helper_is_used():
    modules = [tree(name) for name in MODULES]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(BENCH.glob("*.py"))]
    assert dead_helpers(modules, modules + bench) == sorted(UNCALLED_ON_PURPOSE)


def test_dead_helper_check_sees_one():
    module_tree = ast.parse("import os\ndef used(): pass\ndef spare(): pass\n"
                            "def _private(): pass\nclass Kept: pass\nclass Dropped: pass\n"
                            "def caller():\n    return used(), os.path.Kept\n")
    assert dead_helpers([module_tree], [module_tree]) == ["Dropped", "caller", "spare"]


def handler_returns(module_tree):
    """(function, line) of every `return` with a value in a `_cmd_*` function:
    the handlers return nothing, and `cli.main` alone sets the exit code."""
    return [(fn.name, node.lineno) for fn in module_tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
            for node in ast.walk(fn) if isinstance(node, ast.Return) and node.value is not None]


def test_cli_handlers_return_nothing():
    assert handler_returns(tree("cli")) == []


def test_handler_return_check_sees_one():
    module_tree = ast.parse("def _cmd_a(args):\n    if args:\n        return\n    print(1)\n"
                            "def _cmd_b(args):\n    return 0\n"
                            "def main(argv):\n    return 1\n")
    assert handler_returns(module_tree) == [("_cmd_b", 6)]
