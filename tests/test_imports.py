"""Every name a module of the package imports is used in that module, and
every private module-level name (``_x``) it defines is referenced in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kuranil"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _dead_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - used)


def test_unused_imports_are_found():
    source = "import os\nfrom fractions import Fraction\nos.getcwd()\n"
    assert _unused_imports(source) == ["Fraction"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_dead_private_names_are_found():
    source = ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
              "def _used():\n    return _LIMIT\n"
              "def _dead():\n    pass\n"
              "class _Unused:\n    pass\n"
              "def public():\n    return _used()\n")
    assert _dead_private_names(source) == ["_SPARE", "_Unused", "_dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_private_names_are_used(module):
    assert _dead_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []
