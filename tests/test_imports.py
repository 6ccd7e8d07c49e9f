"""AST scans of the sources: unused imports, dead definitions, and `assert`
in the library.

A name counts as used when it appears as an identifier anywhere in the
importing file (a bare name, or the root of an attribute chain).  Package
``__init__.py`` files re-export their imports and ``from __future__``
imports switch on language features, so both are exempt.

Every top-level function and class of the library, and every method of
its classes other than a dunder, must be named somewhere outside its own
definition, in the library, the scripts, the tests or the benchmark; a
reference implementation that tests check a fast path against counts as
named.

The library and scripts raise typed errors instead of asserting, because
``python -O`` strips assert statements; tests may assert.

The enumeration route (``graphs.py``) imports nothing of the geometry it
certifies.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src/ehrhil", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py")
EVERY_SOURCE = sorted(
    path
    for folder in ("src/ehrhil", "scripts", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py"))
LIBRARY = sorted(
    path
    for folder in ("src/ehrhil", "scripts")
    for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the module never refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from fractions import Fraction as F\n"
              "import os.path\n"
              "print(sys.argv, os.sep)\n")
    assert unused_imports(source) == [(3, "F")]


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"polytope.py", "certify_suite.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_lines(source):
    """Line of every assert statement in the module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_scan_finds_an_assert():
    source = ("def f(x):\n"
              "    if x:\n"
              "        assert x > 0, 'positive'\n"
              "    return 'assert'\n")
    assert assert_lines(source) == [3]


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_in_library(path):
    assert assert_lines(path.read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def mentioned(node):
    """Names a piece of syntax refers to: identifiers, attributes, imported
    names, and string constants, since ``getattr`` and the benchmark's
    tracer look attributes up by name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def dead_definitions(sources, library):
    """(file, line, name) of each top-level function or class, and each
    method other than a dunder, of the files in `library` that no file of
    `sources` (file -> source) names outside the definition itself."""
    namers = defaultdict(set)  # name -> (file, owner) of each mention
    defs = []
    for label, source in sources.items():
        for stmt in ast.parse(source).body:
            own = (stmt.name,) if isinstance(stmt, DEFINITIONS) else ()
            if own and label in library:
                defs.append((label, stmt.lineno, own))
            parts = [(own, stmt)]
            if isinstance(stmt, ast.ClassDef):
                # a method is owned by (class, method), the rest by the class
                parts = [(own, node) for node in
                         stmt.decorator_list + stmt.bases + stmt.keywords]
                for sub in stmt.body:
                    if not isinstance(sub, FUNCTIONS):
                        parts.append((own, sub))
                        continue
                    parts.append((own + (sub.name,), sub))
                    dunder = sub.name[:2] == sub.name[-2:] == "__"
                    if label in library and not dunder:
                        defs.append((label, sub.lineno, own + (sub.name,)))
            for owner, node in parts:
                for name in mentioned(node):
                    namers[name].add((label, owner))
    return [(label, line, own[-1]) for label, line, own in defs
            if all(other == label and owner[:len(own)] == own
                   for other, owner in namers[own[-1]])]


def test_scan_finds_a_dead_definition():
    lib = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def by_string():\n    pass\n"
           "class Dead:\n    pass\n")
    other = "from lib import used\ngetattr(lib, 'by_string')()\n"
    assert dead_definitions({"lib": lib, "other": other}, {"lib"}) == [
        ("lib", 3, "recursive"), ("lib", 7, "Dead")]


def test_scan_finds_a_dead_method():
    lib = ("class Shape:\n"
           "    def __init__(self):\n        self.area = self._measure()\n"
           "    def _measure(self):\n        return Shape.unit\n"
           "    def grow(self, n):\n        return self.grow(n - 1)\n"
           "    def unit(self):\n        return 1\n"
           "    def shrink(self):\n        return 0\n")
    other = "from lib import Shape\n"
    assert dead_definitions({"lib": lib, "other": other}, {"lib"}) == [
        ("lib", 6, "grow"), ("lib", 10, "shrink")]


def test_no_dead_definitions():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in EVERY_SOURCE}
    library = {label for label in sources if label.startswith("src/")}
    assert dead_definitions(sources, library) == []


GEOMETRY = {"polytope", "complexes", "constructions", "srideal", "normal_sr"}


def imported_names(source):
    """Every dotted part of each module a source imports or imports from,
    and every name it imports from a module (which may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_scan_finds_a_geometry_import():
    source = ("from . import polytope\n"
              "from .exact import dot\n"
              "import ehrhil.complexes as cx\n"
              "from ehrhil.srideal import hilbert_from_f\n")
    assert imported_names(source) & GEOMETRY == {
        "polytope", "complexes", "srideal"}


def test_enumeration_route_imports_no_geometry():
    source = (ROOT / "src" / "ehrhil" / "graphs.py").read_text()
    assert imported_names(source) & GEOMETRY == set()
