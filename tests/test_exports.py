"""Every public name has a caller: each name that ``fieldcqed/__init__.py``
imports is read somewhere else in the package source, outside its own
definition, or by the benchmark.  A name that only the tests use belongs in
the tests.  The benchmark is read as text, without importing it."""

import ast
import re
from pathlib import Path

import fieldcqed

SRC = Path(fieldcqed.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def exported_names() -> list:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(source: str) -> set:
    """Every ``Name`` and ``Attribute`` that ``source`` reads (loads),
    except a top-level definition's own name inside that definition."""
    found = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)  # set on function and class definitions
        found |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(stmt)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)} - {own}
    return found


def test_every_exported_name_is_used_outside_the_tests():
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in SRC.glob("*.py") if p.name != "__init__.py"))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.rglob("*.py")))
    unused = [name for name in exported_names()
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)]
    assert unused == []


def test_reference_scan_skips_only_the_own_definition():
    source = "def f(n):\n    return f(n - 1) + g.h\n\nclass C:\n    x = f\n"
    assert referenced_names(source) == {"n", "g", "h", "f"}
    assert "f" not in referenced_names("def f(n):\n    return f(n - 1)\n")
    assert {"evolve", "TransmonParams"} <= set(exported_names())
