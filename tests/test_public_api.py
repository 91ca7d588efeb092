"""The package root: every name the benchmark worker and the README
library example import from ``kbevolve`` resolves, and nothing else is
exported."""

import ast
import inspect
import re
from pathlib import Path

import kbevolve
from kbevolve.ntriples import triple_to_line
from kbevolve.synth import SynthSpec, generate_kb

REPO = Path(__file__).resolve().parent.parent
WORKER = REPO / "perfbench" / "worker.py"


def readme_library_code() -> str:
    text = (REPO / "README.md").read_text()
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library'"
    return match.group(1)


def root_imports(source: str) -> set[str]:
    """Names a module imports with ``from kbevolve import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "kbevolve" and node.level == 0
        for alias in node.names
    }


def write_nt(path: Path, triples) -> None:
    path.write_text("".join(triple_to_line(t) + "\n" for t in triples))


class TestPackageRoot:
    def test_worker_imports_resolve(self):
        names = root_imports(WORKER.read_text())
        assert names
        assert sorted(n for n in names if not hasattr(kbevolve, n)) == []

    def test_exports_only_what_callers_import(self):
        exported = {
            name
            for name, value in vars(kbevolve).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        callers = root_imports(WORKER.read_text()) | root_imports(readme_library_code())
        assert exported == callers

    def test_readme_library_example_runs(self, tmp_path, monkeypatch):
        schema, instances, _ = generate_kb(SynthSpec(4, 3, 1, 6, 0.5, 0.0, 9))
        write_nt(tmp_path / "schema.nt", schema)
        write_nt(tmp_path / "instances.nt", instances)
        monkeypatch.chdir(tmp_path)
        exec(compile(readme_library_code(), "README.md", "exec"), {})
        evolved = (tmp_path / "evolved.nt").read_text()
        assert evolved.endswith(" .\n")
        assert "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" in evolved
