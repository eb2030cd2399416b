"""Import hygiene: every name a module imports with ``from ... import`` is used.

``__init__.py`` is skipped because its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p
    for p in (Path(__file__).resolve().parent.parent / "src" / "axf").glob("*.py")
    if p.name != "__init__.py"
)


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
