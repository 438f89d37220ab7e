"""The per-layer tracer of the benchmark still finds every name it rebinds.

``perfbench/tracer.py`` wraps functions by (module, attribute) name. A name
dropped from a module, say an import nothing calls any more, breaks only
the traced benchmark run; these tests catch it in the ordinary suite. They
also check that the simulation calls the physics through the names the
tracer wraps, that an import kept only for the tracer is one it wraps, and
that the tracer's split of ``StepTracker.step`` by phase still fits, and
that each method it patches on a class is that class's own.
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


def _tracer_constant(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == [name]
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACER}")


def _module_bindings():
    return _tracer_constant("MODULE_BINDINGS")


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
    names = [
        "satellite_direction", "measure", "receiver_voltage", "az_coeff_from_elevation",
        "command",
    ]
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


def test_tracer_finds_the_step_it_splits_by_phase():
    # ``Tracer.install`` patches ``StepTracker.step`` through the class
    # ``__dict__`` and charges each call to ``tracker.step.<phase value>``.
    assert "step" in tracker.StepTracker.__dict__
    phases = _tracer_constant("STEP_PHASES")
    assert sorted(p.value for p in tracker.TrackerPhase if p.value not in phases) == []


def test_tracer_finds_the_methods_it_patches():
    # ``Tracer._patch`` reads each original through the owner's ``__dict__``,
    # so a method renamed, removed or only inherited would stop the traced
    # run with KeyError. Each ``_patch(Class, "name", ...)`` call is checked,
    # the class found through the tracer's own imports.
    tree = ast.parse(TRACER.read_text())
    modules = {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    patches = [
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "_patch"
        and isinstance(call.args[1], ast.Constant)
    ]
    assert patches
    missing = [
        f"{owner}.{name}"
        for owner, name in patches
        if name not in vars(getattr(importlib.import_module(modules[owner]), owner))
    ]
    assert missing == []
