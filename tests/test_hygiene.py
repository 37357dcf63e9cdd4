"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tspbmc"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that its code never reads.

    A name listed in ``__all__`` counts as read; ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w)\n"
    assert unused_imports(source) == [(1, "os"), (2, "a"), (3, "z")]
    assert unused_imports("from __future__ import annotations\n__all__ = ['q']\n"
                          "from m import q\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
