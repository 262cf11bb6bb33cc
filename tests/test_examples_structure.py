"""Examples sanity: every example is importable-as-source, documented,
and uses only the public API; every ``repro`` import in a docs code block
exists."""

import ast
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md"))
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _assert_repro_imports_resolve(source: str, where: str) -> None:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{where}: {node.module}.{alias.name} missing"
                )


class TestExamples:
    def test_at_least_five_examples(self):
        assert len(EXAMPLE_FILES) >= 5

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_parses_and_has_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_has_main_guard(self, path):
        source = path.read_text()
        assert 'if __name__ == "__main__":' in source
        assert "def main()" in source

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_imports_resolve(self, path):
        """Every repro import named by an example must exist."""
        _assert_repro_imports_resolve(path.read_text(), path.name)

    def test_quickstart_exists(self):
        assert (EXAMPLES_DIR / "quickstart.py").exists()


class TestDocs:
    def test_docs_have_python_blocks(self):
        assert any(PYTHON_BLOCK.search(path.read_text()) for path in DOC_FILES)

    @pytest.mark.parametrize("path", DOC_FILES, ids=[p.stem for p in DOC_FILES])
    def test_imports_resolve(self, path):
        """Every repro import in a fenced ``python`` block must exist."""
        for index, match in enumerate(PYTHON_BLOCK.finditer(path.read_text())):
            _assert_repro_imports_resolve(match.group(1), f"{path.name} block {index}")
