"""Every imported name is used: an AST scan of the library, scripts and tests.

A name counts as used when it appears as an identifier anywhere in the
importing file (a bare name, or the root of an attribute chain).  Package
``__init__.py`` files re-export their imports and ``from __future__``
imports switch on language features, so both are exempt.
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
