"""Every exception type that the package defines is caught somewhere in it.

A caller that handles every failure of a kind alike catches one type and
reads the message for the reason. A subclass that no ``except`` clause
names adds a type to the surface and tells no caller anything more.
"""

import ast
import importlib
import inspect
from pathlib import Path

import steptrack

SOURCES = sorted(Path(steptrack.__file__).parent.glob("*.py"))


def _defined_exceptions() -> dict[str, str]:
    """The exception classes each module defines, by name, with the module."""
    found = {}
    for path in SOURCES:
        module = importlib.import_module(
            "steptrack" if path.stem == "__init__" else f"steptrack.{path.stem}"
        )
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                found[name] = path.name
    return found


def _caught_names() -> set[str]:
    """Every name that an ``except`` clause of the package catches."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


def test_every_defined_exception_is_caught_in_the_package():
    defined = _defined_exceptions()
    assert defined
    uncaught = sorted(f"{module}: {name}" for name, module in defined.items()
                      if name not in _caught_names())
    assert uncaught == [], "exception types that no except clause catches: " + ", ".join(uncaught)

