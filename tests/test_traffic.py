"""Every definition of the package is read by the program.

A public function or class at module level of src/mmplab, or a public
method of such a class, must be read by src/mmplab, perfbench/*.py or
tests/test_acceptance.py; a private function, class or assigned name at
module level of src/mmplab (one whose name starts with _, not a dunder)
must be read by src/mmplab itself.  A read is a name (not a method), an
attribute or a string constant (the benchmark wraps names it looks up
by string).  A helper only unit tests call, or one no caller is left
for, fails here.  Stdlib ast, like test_imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "mmplab").glob("*.py"))
READERS = SRC + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def read_names(readers: list[str]) -> tuple[set[str], set[str]]:
    """The names the readers load, and the attributes and string constants
    they read."""
    names, attrs = set(), set()
    for node in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names, attrs


def unread_definitions(source: str, readers: list[str]) -> list[str]:
    """Qualified names of the public definitions in source that no reader reads."""
    names, attrs = read_names(readers)
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


def unread_private(source: str, readers: list[str]) -> list[str]:
    """The private module-level functions, classes and assigned names of
    source that no reader reads."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    names, attrs = read_names(readers)
    return [name for name in defined if name.startswith("_") and not name.endswith("__")
            and name not in names | attrs]


def test_the_check_finds_unread_definitions():
    source = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class Box:\n    def read(self): pass\n    def unread(self): pass\n"
              "    def __init__(self): pass\ndef wrapped(): pass\n")
    readers = [source, "used()\nBox().read()\nunread = 1\nTARGETS = ('wrapped',)\n"]
    assert unread_definitions(source, readers) == ["unused", "Box.unread"]


def test_the_check_finds_unread_private_names():
    source = ("def _used(): pass\ndef _unused(): pass\nclass _Box: pass\n"
              "_A, _B = 1, 2\n_C: int = 3\n__version__ = '1'\ndef public(): pass\n")
    readers = [source, "_used()\nmod._B\n"]
    assert unread_private(source, readers) == ["_unused", "_Box", "_A", "_C"]


def test_every_public_definition_is_read():
    readers = [path.read_text() for path in READERS]
    unread = {path.name: unread_definitions(path.read_text(), readers) for path in SRC}
    assert {name: found for name, found in unread.items() if found} == {}


def test_every_private_name_is_read_by_the_package():
    readers = [path.read_text() for path in SRC]
    unread = {path.name: unread_private(path.read_text(), readers) for path in SRC}
    assert {name: found for name, found in unread.items() if found} == {}
