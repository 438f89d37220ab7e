"""Every name a package module imports is loaded in that module.

No linter runs over the package, so this stands in for pyflakes' F401. Two
kinds of import are exempt: those marked ``# noqa: F401``, kept as the
names the benchmark's tracer rebinds (``tests/test_tracer_bindings.py``
checks them), and the re-exports that ``__init__.py`` lists in ``__all__``.
"""

import ast
from pathlib import Path

import steptrack

SOURCES = sorted(Path(steptrack.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names a module's imports bind, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_every_import_is_loaded():
    unused = []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            loaded |= set(steptrack.__all__)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported(tree, text.splitlines()).items()
            if name not in loaded
        ]
    assert not unused, "imported but never loaded: " + ", ".join(unused)
