"""Every name a module lists in `__all__` resolves, so `import *` works,
every name a package or test module imports is used, the package's
imports point one way, and every `module.name` its docs cite is there;
and `tests/code_lines.py` counts code lines as it says."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import antiflex
from tests.code_lines import code_lines
from tests.code_lines import main as code_lines_main

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


def unread_slots(sources):
    """(file name, class, name) of each `__slots__` name of a class defined
    in the sources that no source reads as an attribute (an `x.name` load):
    a slot that is only ever stored holds nothing anyone uses."""
    slots, reads = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and any(isinstance(t, ast.Name)
                                    and t.id == "__slots__"
                                    for t in stmt.targets)):
                        names = ast.literal_eval(stmt.value)
                        if isinstance(names, str):
                            names = (names,)
                        slots += [(name, node.name, s) for s in names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
    return [slot for slot in slots if slot[2] not in reads]


def test_every_slot_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert "__slots__" in sources["linalg.py"]
    assert unread_slots(sources) == []


def test_unread_slots_are_found():
    sources = {
        "a.py": ("class A:\n"
                 "    __slots__ = ('read', 'stored', 'elsewhere')\n"
                 "    def __init__(self):\n"
                 "        self.read = self.stored = self.elsewhere = 0\n"
                 "        print(self.read)\n"
                 "class B:\n"
                 "    __slots__ = 'alone'\n"
                 "class C:\n"
                 "    __slots__ = ()\n"),
        "b.py": "def f(a):\n    return a.elsewhere\n",
    }
    assert unread_slots(sources) == [("a.py", "A", "stored"),
                                     ("a.py", "B", "alone")]


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


# Each module imports, at module level, only from the modules before it.
ORDER = ["linalg", "reports", "algebra", "bimodule", "glie", "operators",
         "deformation", "onstruct", "cohomology", "search", "document", "cli"]

# The one package import inside a function body, as (module, function,
# imported module): `tilde_bimodule` belongs to `bimodule`, and its check,
# `deformation._nijenhuis_structure`, reads `operators.is_nijenhuis` and
# `deformation.block_operator`, which sit above it.
LAZY = {("bimodule", "tilde_bimodule", "deformation")}


def package_imports(source):
    """(function, module) of each import from a module of the package
    (`.module` or `antiflex.module`), in source order: function names the
    innermost function whose body holds the import, or is None for an
    import that runs when the module is imported."""
    found = []

    def modules(node):
        if isinstance(node, ast.ImportFrom) and node.level:
            return ([node.module.split(".")[0]] if node.module
                    else [alias.name for alias in node.names])
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        return [name.split(".")[1] for name in names
                if name.startswith("antiflex.")]

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((function, module) for module in modules(node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_package_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import antiflex\n"
        "from .a import x\n"
        "import antiflex.b\n"
        "from antiflex.c import y\n"
        "from . import d\n"
        "def f():\n"
        "    from .e import z\n"
        "    def g():\n"
        "        import antiflex.f\n"
        "    return z\n"
        "class K:\n"
        "    from .h import v\n"
        "    def m(self):\n"
        "        from antiflex.g import w\n")
    assert package_imports(source) == [
        (None, "a"), (None, "b"), (None, "c"), (None, "d"), ("f", "e"),
        ("g", "f"), (None, "h"), ("m", "g")]


def test_package_imports_sit_at_module_level():
    """No function imports from the package but `LAZY`'s one."""
    found = [(path.stem, function, module) for path in SOURCES
             for function, module in package_imports(
                 path.read_text(encoding="utf-8"))
             if function is not None]
    assert [where for where in found if where not in LAZY] == []


def test_module_level_imports_point_down_the_order():
    """Each module imports only from the modules before it in `ORDER`, so
    no two modules import each other; the package's `__init__` and
    `__main__` import from the modules and stand outside the order."""
    assert {path.stem for path in SOURCES} == set(ORDER) | {"__init__",
                                                           "__main__"}
    upward = [(path.stem, module) for path in SOURCES if path.stem in ORDER
              for function, module in package_imports(
                  path.read_text(encoding="utf-8"))
              if function is None
              and module not in ORDER[:ORDER.index(path.stem)]]
    assert upward == []


DOC_REFERENCE = re.compile(r"`(?:antiflex\.)?(\w+)\.(\w+)`")
MODULE_NAMES = {name.split(".")[1] for name in MODULES[1:]}
README = pathlib.Path(__file__).parent.parent / "README.md"


def doc_references(text):
    """(module, name) of each backticked `module.name` or
    `antiflex.module.name` in text whose module is one of the package's."""
    return [(module, name) for module, name in DOC_REFERENCE.findall(text)
            if module in MODULE_NAMES]


def docstrings(source):
    """The docstrings of a module and of its functions and classes."""
    return [doc for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef))
            and (doc := ast.get_docstring(node, clean=False))]


def test_doc_references_are_found():
    text = ("`glie.reversal` and `antiflex.cli.main`, not `Bimodule.int_view`,"
            " `antiflex.glie`, `glie.reversal(f)` or `tests/slow_routes.py`")
    assert doc_references(text) == [("glie", "reversal"), ("cli", "main")]


def test_doc_references_name_a_definition_of_their_module():
    """A `module.name` in a src docstring or in README.md names a function
    or class defined in that module, so a definition that moves takes its
    citations along.  ROADMAP.md is left out: it names metrics, files and
    functions still to be written."""
    texts = [(path.name, doc) for path in SOURCES
             for doc in docstrings(path.read_text(encoding="utf-8"))]
    texts.append((README.name, README.read_text(encoding="utf-8")))
    refs = [(where, module, name) for where, text in texts
            for module, name in doc_references(text)]
    assert len(refs) >= 20

    def defined(module, name):
        obj = getattr(importlib.import_module(f"antiflex.{module}"), name,
                      None)
        return ((inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == f"antiflex.{module}")

    assert [(where, f"{module}.{name}") for where, module, name in refs
            if not defined(module, name)] == []


CODE_SAMPLE = '''"""A module docstring,
over two lines."""

import os  # a comment
# a comment line


def f(x):
    """A docstring."""
    y = (x +
         1)
    s = """a string, not a docstring,
    over two lines"""
    return y, s, os


class C:
    """A class docstring."""
    z = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path,
                                                                 capsys):
    """`tests/code_lines.py` counts import, def, the two lines of y, the
    two of s, return, class and z; its table ends with the total."""
    assert code_lines(CODE_SAMPLE) == 9
    path = tmp_path / "sample.py"
    path.write_text(CODE_SAMPLE, encoding="utf-8")
    assert code_lines_main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() \
        == ["total", "18", "38"]
