"""Every name a module lists in `__all__` resolves, so `import *` works,
and every name a package or test module imports is used."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import antiflex

MODULES = ["antiflex"] + [f"antiflex.{info.name}" for info in
                          pkgutil.iter_modules(antiflex.__path__)
                          if info.name != "__main__"]
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(name), "__all__")]


def test_the_exporting_modules_are_found():
    assert {"antiflex", "antiflex.linalg", "antiflex.cli"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entry"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _annotation_names(node):
    """Names in an annotation, including a quoted one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source):
    """(line, name) of each name bound by an import and never read: not as
    a name, not in an annotation, not listed in `__all__`.  An import
    marked `# noqa: F401` is a deliberate re-export and counts as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    for note in annotations:
        if note is not None:
            used |= _annotation_names(note)
    return [(line, name) for line, name in imported if name not in used]


SOURCES = sorted(pathlib.Path(antiflex.__file__).parent.glob("*.py"))
TEST_SOURCES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def test_the_source_files_are_found():
    assert {"__init__.py", "linalg.py", "cli.py"} <= {p.name for p in SOURCES}
    assert {"conftest.py", "slow_routes.py", "test_exports.py"} \
        <= {p.name for p in TEST_SOURCES}


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES,
                         ids=lambda p: (p.name if p.parent.name == "antiflex"
                                        else f"tests/{p.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional, List\n"
        "from .a import kept  # noqa: F401\n"
        "from .b import listed, dropped\n"
        "__all__ = ['listed']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return sys.maxsize\n")
    assert unused_imports(source) == [(2, "os"), (3, "List"), (5, "dropped")]


def unreferenced_private(sources):
    """(file name, line, name) of each private (`_name`, not dunder)
    function, method or class defined in the sources and never referenced
    outside its own body: not as a name, an attribute or an imported name,
    in any of the sources."""
    defined, refs = [], []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defined.append((name, node))
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute)
                   else node.name if isinstance(node, ast.alias) else None)
            if ref is not None:
                refs.append((name, node.lineno, ref))
    return [(name, node.lineno, node.name) for name, node in defined
            if not any(ref == node.name and not (
                           where == name
                           and node.lineno <= line <= node.end_lineno)
                       for where, line, ref in refs)]


def test_every_private_definition_is_used_in_the_package():
    """A private helper kept only for the tests belongs in the tests."""
    assert unreferenced_private({p.name: p.read_text(encoding="utf-8")
                                 for p in SOURCES}) == []


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a.py": ("def _used():\n"
                 "    return _used()\n"
                 "def _recursive():\n"
                 "    return _recursive()\n"
                 "class _Kept:\n"
                 "    def _method(self):\n"
                 "        return 0\n"
                 "    def _called(self):\n"
                 "        return self._method()\n"
                 "    def __init__(self):\n"
                 "        pass\n"),
        "b.py": "from a import _used, _Kept\n_Kept()._called()\n",
    }
    assert unreferenced_private(sources) == [("a.py", 3, "_recursive")]


def import_time_randoms(source):
    """Lines of the `random.Random(...)` (or bare `Random(...)`) calls that
    run when the module is imported: outside every function and lambda
    body, where a default or a decorator still runs at import.  One such
    generator is shared by the tests that draw from it, so each test's
    data would depend on which tests drew before it."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for child in (node.args, *getattr(node, "decorator_list", ())):
                visit(child)
            return
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "Random"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "random")
                or (isinstance(node.func, ast.Name)
                    and node.func.id == "Random")):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(pathlib.Path(__file__).parent
                                        .rglob("*.py")),
                         ids=lambda p: f"tests/{p.name}")
def test_no_random_generator_at_import_time(path):
    """Each test seeds its own `random.Random`; none is built at import."""
    assert import_time_randoms(path.read_text(encoding="utf-8")) == []


def test_import_time_randoms_are_found():
    source = (
        "import random\n"
        "from random import Random\n"
        "rng = random.Random(1)\n"
        "def test_a(rng=Random(2)):\n"
        "    return random.Random(3)\n"
        "@pytest.mark.parametrize('r', [random.Random(4)])\n"
        "def test_b(r):\n"
        "    f = lambda: random.Random(5)\n"
        "class Case:\n"
        "    shared = random.Random(6)\n"
        "    def method(self):\n"
        "        return random.Random(7)\n"
        "rngs = [random.Random(s) for s in (8, 9)]\n")
    assert import_time_randoms(source) == [3, 4, 6, 10, 13]
