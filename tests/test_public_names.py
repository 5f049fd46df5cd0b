"""Every public top-level function and class of the library is read somewhere
outside the unit tests: by the library, a demo, a tool, the benchmark or the
acceptance criteria.  A function must be read outside its own module, so one
that only its module calls is private; a class may be read by its own module
too, because the types a public function returns are part of the API."""

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
