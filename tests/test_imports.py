"""Code hygiene: every name a module imports with ``from ... import`` is used,
and every function reads each of its parameters.

``__init__.py`` is skipped by the import check because its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ALL_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "axf").glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]

# Methods that take a parameter only to fit a protocol that other
# implementations of it read.
UNREAD_ALLOWED = {"Formula.rebuild", "_Leaf.rebuild"}


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_name():
    source = "from typing import Mapping, Optional\n\nx: Optional[int] = None\n"
    assert unused_from_imports(source) == ["line 1: Mapping"]


def unread_parameters(source: str) -> list[str]:
    """``function: parameter`` for every parameter its function body never
    reads, skipping ``self`` and ``cls``; methods are named ``Class.method``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                a = child.args
                params = [
                    arg.arg
                    for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if arg is not None and arg.arg not in ("self", "cls")
                ]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(
                    f"{name}: {param}"
                    for param in params
                    if param not in read and name not in UNREAD_ALLOWED
                )
                visit(child, scope + [child.name])

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_an_unread_parameter():
    source = (
        "class C:\n"
        "    def m(self, used, unused, *, key=None):\n"
        "        return used, (lambda dropped: 0)\n"
        "def f(x, **extra):\n"
        "    def g(y):\n"
        "        return x\n"
        "    return g\n"
    )
    assert unread_parameters(source) == [
        "C.m: unused", "C.m: key", "f: extra", "f.g: y"
    ]
