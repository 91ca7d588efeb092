"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "kbevolve").glob("*.py"))


def _imported_top_level_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # A relative import stays inside the package.
            yield "kbevolve" if node.level else node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "ntriples.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_kbevolve(path):
    foreign = {
        name
        for name in _imported_top_level_modules(path)
        if name != "kbevolve" and name not in sys.stdlib_module_names
    }
    assert foreign == set()
