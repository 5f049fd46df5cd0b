"""Every public top-level function and class of the library is read somewhere
outside the unit tests: by the library, a demo, a tool, the benchmark or the
acceptance criteria."""

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


def public_definitions(source: str) -> list[str]:
    """Names of the module's public top-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(source: str) -> set[str]:
    """Every name an expression reads, bare (``f``) or as an attribute (``m.f``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_finds_an_unread_name():
    source = "def used():\n    pass\n\ndef unused():\n    pass\n\nclass _Private:\n    pass\n"
    assert public_definitions(source) == ["used", "unused"]
    assert names_read("import m\nm.used()\nunused = 1\n") == {"m", "used"}


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_name_is_read(path, read_anywhere):
    assert [n for n in public_definitions(path.read_text()) if n not in read_anywhere] == []
