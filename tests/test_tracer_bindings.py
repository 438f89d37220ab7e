"""The per-layer tracer of the benchmark still finds every name it rebinds.

``perfbench/tracer.py`` wraps functions by (module, attribute) name. A name
dropped from a module, say an import nothing calls any more, breaks only
the traced benchmark run; this test catches it in the ordinary suite. The
tracer file is parsed, not imported, so the test neither runs nor edits it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _module_bindings():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["MODULE_BINDINGS"]
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no MODULE_BINDINGS in {TRACER}")


BINDINGS = [
    (module, attr, layer)
    for module, pairs in _module_bindings().items()
    for attr, layer in pairs
]


@pytest.mark.parametrize(
    "module, attr, layer", BINDINGS, ids=[f"{m}.{a}" for m, a, _ in BINDINGS]
)
def test_tracer_binding_resolves(module, attr, layer):
    fn = getattr(importlib.import_module(module), attr)
    assert callable(fn)
    # The layer is named after the defining module and function.
    defining_module, name = layer.rsplit(".", 1)
    assert fn.__name__ == name
    assert fn.__module__ == f"steptrack.{defining_module}"
