"""Every public definition of the package is read by the program.

A public function or class at module level of src/mmplab, or a public
method of such a class, must be read by src/mmplab, perfbench/*.py or
tests/test_acceptance.py: as a name (not a method), an attribute or a
string constant (the benchmark wraps names it looks up by string).  A
helper only unit tests call fails here.  Stdlib ast, like test_imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "mmplab").glob("*.py"))
READERS = SRC + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def unread_definitions(source: str, readers: list[str]) -> list[str]:
    """Qualified names of the public definitions in source that no reader reads."""
    names, attrs = set(), set()
    for node in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    unread = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name not in names | attrs:
            unread.append(node.name)
        methods = node.body if isinstance(node, ast.ClassDef) else []
        unread += [f"{node.name}.{m.name}" for m in methods if isinstance(m, ast.FunctionDef)
                   and not m.name.startswith("_") and m.name not in attrs]
    return unread


def test_the_check_finds_unread_definitions():
    source = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class Box:\n    def read(self): pass\n    def unread(self): pass\n"
              "    def __init__(self): pass\ndef wrapped(): pass\n")
    readers = [source, "used()\nBox().read()\nunread = 1\nTARGETS = ('wrapped',)\n"]
    assert unread_definitions(source, readers) == ["unused", "Box.unread"]


def test_every_public_definition_is_read():
    readers = [path.read_text() for path in READERS]
    unread = {path.name: unread_definitions(path.read_text(), readers) for path in SRC}
    assert {name: found for name, found in unread.items() if found} == {}
