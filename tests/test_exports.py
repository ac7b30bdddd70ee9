"""Every name a module lists in `__all__` resolves, so `import *` works,
and every name a module imports is used."""

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


def test_the_source_files_are_found():
    assert {"__init__.py", "linalg.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
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
