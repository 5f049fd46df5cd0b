"""Every public top-level function and class of the library is read somewhere
outside the unit tests: by the library, a demo, a tool, the benchmark or the
acceptance criteria.  A function must be read outside its own module, so one
that only its module calls is private; a class may be read by its own module
too, because the types a public function returns are part of the API.

A frozen value is written only while it is built or unpickled: the library
calls ``object.__setattr__`` only inside ``__post_init__`` or
``__setstate__``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/fedsc/*.py"))
READERS = sorted(
    p
    for pattern in ("src/fedsc/*.py", "demos/*.py", "tools/*.py", "perfbench/*.py",
                    "tests/test_acceptance.py")
    for p in ROOT.glob(pattern)
)


def public_definitions(source: str, kind: type) -> list[str]:
    """Names of the module's public top-level definitions of ``kind``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, kind) and not node.name.startswith("_")]


def names_read(source: str) -> set[str]:
    """Every name an expression reads, bare (``f``) or as an attribute (``m.f``),
    and every string constant (the benchmark's tracer names what it wraps)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_finds_an_unread_name():
    source = "def used():\n    pass\n\ndef unused():\n    pass\n\nclass _Private:\n    pass\n"
    assert public_definitions(source, ast.FunctionDef) == ["used", "unused"]
    assert public_definitions(source, ast.ClassDef) == []
    assert names_read("import m\nm.used()\nunused = 1\nwrap(m, 'named')\n") == {
        "m", "used", "wrap", "named"}


@pytest.fixture(scope="module")
def reads():
    return {p: names_read(p.read_text()) for p in READERS}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_name_is_read(path, reads):
    source = path.read_text()
    elsewhere = set().union(*(names for p, names in reads.items() if p != path))
    anywhere = elsewhere | reads[path]
    assert [n for n in public_definitions(source, ast.FunctionDef)
            if n not in elsewhere] == []
    assert [n for n in public_definitions(source, ast.ClassDef)
            if n not in anywhere] == []


def frozen_writes_outside_construction(source: str) -> list[int]:
    """Lines that call ``object.__setattr__`` outside ``__post_init__`` and
    ``__setstate__``."""
    lines = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name in ("__post_init__", "__setstate__")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and not inside):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


def test_finds_a_frozen_write_outside_construction():
    source = ("class A:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "    def __setstate__(self, state):\n"
              "        object.__setattr__(self, 'x', state)\n"
              "    def cache(self):\n"
              "        def inner():\n"
              "            object.__setattr__(self, 'y', 2)\n"
              "        object.__setattr__(self, 'z', 3)\n")
    assert frozen_writes_outside_construction(source) == [8, 9]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_frozen_values_are_written_only_while_built(path):
    assert frozen_writes_outside_construction(path.read_text()) == []
