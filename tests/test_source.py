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


# the constructors that set an immutable object's slots; everything else is made through them
SETTERS = {"Record.__init__", "Tableau.__init__", "CrystalSpec.__init__", "LaurentPoly.__init__"}


def setattr_callers(source: str) -> list[str]:
    """The qualified name (Class.method, or <module>) of each place that
    calls object.__setattr__."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_setattr_callers_are_found():
    source = ("object.__setattr__(x, 'a', 1)\nclass A:\n    def __init__(self):\n"
              "        object.__setattr__(self, 'a', 1)\n    def f(self):\n        setattr(self, 'b', 2)\n")
    assert setattr_callers(source) == ["<module>", "A.__init__"]


def test_one_way_in():
    """An immutable object's slots are set only by its constructor: every
    other operation returns an object that a constructor made."""
    package = sorted(Path(crystalpaths.__file__).parent.glob("*.py"))
    outside = ["%s: %s" % (path.name, name) for path in package
               for name in setattr_callers(path.read_text(encoding="utf-8")) if name not in SETTERS]
    assert outside == []
