"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tspbmc"
MODULES = sorted(SRC.rglob("*.py"))
# Parameters that are never read but stay, each for the reason given.
UNREAD_KEPT = {
    # the benchmark's verify.py passes it positionally
    "oracle.py": [("explicit_reach", "goal")],
}


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


def unread_parameters(source: str) -> list:
    """The (function, parameter) pairs whose function body holds no name of
    the parameter, other than ``self`` and ``cls``. A nested function or a
    method is named by its path, such as ``outer.inner``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                names = {n.id for stmt in child.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)}
                found.extend((prefix + child.name, p) for p in params
                             if p not in names and p not in ("self", "cls"))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("def f(a, b=1, *args, c, **kw):\n    return a + kw['x']\n"
              "class C:\n    def m(self, x):\n        def g(y):\n            return x\n"
              "        return g\n")
    assert unread_parameters(source) == [
        ("C.m.g", "y"), ("f", "args"), ("f", "b"), ("f", "c")]
    assert unread_parameters("def f(x):\n    def g():\n        return x\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unread_parameters(path):
    assert (unread_parameters(path.read_text(encoding="utf-8"))
            == UNREAD_KEPT.get(str(path.relative_to(SRC)), []))
