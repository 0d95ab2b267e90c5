"""Source hygiene that a linter would check: every local name a function in
``src/`` assigns is read, and every import of a module other than the
package's ``__init__`` is used.  Both are checked on the syntax tree, so
they need no tool beyond the standard library."""

import ast
from pathlib import Path

import pytest

import fieldcqed

MODULES = sorted(Path(fieldcqed.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST, ctx: type) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def unread_locals(tree: ast.Module) -> list:
    """``function: name`` for each name a function stores and never reads;
    a read in a nested function counts, and ``_``-prefixed names and names
    declared global or nonlocal are skipped."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        unread = _names(fn, ast.Store) - _names(fn, ast.Load) - shared
        found += [f"{fn.name}: {name}" for name in sorted(unread) if not name.startswith("_")]
    return found


def unused_imports(tree: ast.Module) -> list:
    """Each name an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = _names(tree, ast.Load)
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_assigned_local_is_read(path):
    assert unread_locals(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(_tree(path)) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
                     "def f(x):\n    y = 1\n    z, _w = x\n    g = 2\n"
                     "    def h():\n        return g\n    return np.sum(z) + c\n")
    assert unread_locals(tree) == ["f: y"]
    assert unused_imports(tree) == ["os", "e"]
