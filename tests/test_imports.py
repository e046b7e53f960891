"""Every module-level import of the package and of its tests is read
somewhere.

No linter runs on this code, so a deletion that leaves an import behind
would go unnoticed.  This walks each module's syntax tree with the standard
library's ast and fails on a name bound by a module-level import that no
expression of the module reads; a re-export counts as a read only through
__all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mmplab"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every unread name bound by a module-level import."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from .a import b as c, d\n__all__ = ['d']\nprint(os)\n")
    assert unused_imports(source) == [(3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
