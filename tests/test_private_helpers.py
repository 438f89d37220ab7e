"""Every private module-level name in the package has a caller."""

import ast
from pathlib import Path

import steptrack

SOURCES = sorted(Path(steptrack.__file__).parent.glob("*.py"))


def _defined(tree: ast.Module) -> dict[str, ast.AST]:
    """The module-level ``_name``s that a module defines, with their statements."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
    return {
        name: node for name, node in names.items()
        if name.startswith("_") and not name.startswith("__")
    }


def test_every_private_helper_is_loaded_elsewhere():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    # Each load of a name, with the statement that defines it excluded, so
    # a helper that only calls itself still counts as dead.
    unused = []
    for module, tree in trees.items():
        for name, definition in _defined(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load) and id(node) not in inside
                for other in trees.values()
                for node in ast.walk(other)
            ):
                unused.append(f"{module}: {name}")
    assert not unused, "private names that nothing in the package loads: " + ", ".join(unused)
