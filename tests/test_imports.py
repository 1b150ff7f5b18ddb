"""No module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "grmk"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import anywhere in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_modules_are_found():
    assert {"cli.py", "graded.py", "reports.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_seen():
    source = ("from __future__ import annotations\n"
              "import heapq\nimport os.path\n"
              "from .graded import CASE_I, CASE_II as II\n"
              "def f():\n    from .forms import d\n    return II, os.path, d\n")
    assert unused_imports(source) == ["CASE_I", "heapq"]
