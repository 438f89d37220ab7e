"""The per-layer tracer of the benchmark still finds every name it rebinds.

``perfbench/tracer.py`` wraps functions by (module, attribute) name. A name
dropped from a module, say an import nothing calls any more, breaks only
the traced benchmark run; these tests catch it in the ordinary suite. They
also check that the simulation calls the physics through the names the
tracer wraps, and that an import kept only for the tracer is one it wraps.
The tracer file is parsed, not imported, so the tests neither run nor edit
it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from steptrack import tracker
from steptrack.scenario import load_scenario, resolve_scenario_path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("module", ["tracker", "cli"])
def test_noqa_imports_are_traced_bindings(module):
    # An import marked unused is kept only for the tracer to rebind; any
    # other one is dead.
    path = ROOT / "src" / "steptrack" / f"{module}.py"
    lines = path.read_text().splitlines()
    kept = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse("\n".join(lines)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    ]
    bound = {attr for attr, _ in _module_bindings()[f"steptrack.{module}"]}
    assert kept
    assert sorted(set(kept) - bound) == []


def test_run_scenario_calls_the_traced_physics(monkeypatch):
    names = ["satellite_direction", "measure", "receiver_voltage", "az_coeff_from_elevation"]
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(tracker, name, counting(name, getattr(tracker, name)))
    sc = load_scenario(resolve_scenario_path("desk_figure8"))
    tracker.run_scenario(
        sc.orbit, sc.antenna, sc.receiver, sc.tracker, 12.0,
        peak_level_db=sc.peak_level_db, truth_k_el=sc.truth_k_el,
    )
    assert all(calls.values()), calls
