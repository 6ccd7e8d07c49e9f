"""AST scans of the sources: unused imports, and `assert` in the library.

A name counts as used when it appears as an identifier anywhere in the
importing file (a bare name, or the root of an attribute chain).  Package
``__init__.py`` files re-export their imports and ``from __future__``
imports switch on language features, so both are exempt.

The library and scripts raise typed errors instead of asserting, because
``python -O`` strips assert statements; tests may assert.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src/ehrhil", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py")
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
