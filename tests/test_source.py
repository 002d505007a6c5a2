"""Checks on the program's source text, with the standard library only."""

import ast
from pathlib import Path

import pytest

import crystalpaths

MODULES = sorted(p for p in Path(crystalpaths.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that a module imports at module level, __future__ imports
    aside, and never reads, as a name or as the base of an attribute."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["line %d: %s" % (line, name) for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from .a import B, C as D, E\n\ndef f(x: E) -> int:\n    return os.path.sep\n")
    assert unused_imports(source) == ["line 2: json", "line 4: B", "line 4: D"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    """Every name a module of the package imports at module level is used there."""
    assert unused_imports(path.read_text(encoding="utf-8")) == []
