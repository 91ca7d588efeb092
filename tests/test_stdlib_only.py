"""The runtime imports nothing outside the standard library, and importing
it loads neither ``dataclasses`` nor ``inspect``."""

import ast
import subprocess
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


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # -I -S: no user site and no .pth file can load either module first.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "import kbevolve, kbevolve.cli\n"
        "print(sorted(before), sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[0] == "[] []"
