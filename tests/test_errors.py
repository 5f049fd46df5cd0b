"""One error class per failure kind: distinct codes, each one raised."""

import ast
import inspect
from pathlib import Path

from fedsc import errors

ROOT = Path(__file__).resolve().parent.parent
ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.FedscError) and cls is not errors.FedscError]


def raised_names() -> set[str]:
    """Class names that a ``raise`` statement in ``src/fedsc`` constructs."""
    names = set()
    for path in (ROOT / "src" / "fedsc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    names.add(node.exc.func.id)
    return names


def test_codes_are_distinct():
    codes = [cls.code for cls in ERRORS]
    assert codes and len(set(codes)) == len(codes)


def test_every_error_class_is_raised():
    raised = raised_names()
    assert [cls.__name__ for cls in ERRORS if cls.__name__ not in raised] == []
