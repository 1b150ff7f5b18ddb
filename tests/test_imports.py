"""No module of the package imports a name it never uses, and no private
function, class or method of the package goes unread."""

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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources):
    """Private functions, classes and methods defined in sources whose name
    no source reads, as a Name or as an Attribute."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


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


def test_no_unread_private_definitions():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_definitions(sources) == []


def test_an_unread_private_definition_is_seen():
    first = ("class _Used:\n    def _method(self):\n        return _helper\n"
             "    def __repr__(self):\n        return ''\n"
             "def _helper():\n    pass\n"
             "def _dead():\n    pass\n"
             "class _DeadClass:\n    def _dead_method(self):\n        pass\n")
    second = "from .first import _Used\nx = _Used()._method()\n"
    assert unread_private_definitions([first, second]) == [
        "_DeadClass", "_dead", "_dead_method"]
