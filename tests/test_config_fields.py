"""Every float field of the five configuration types is checked when built.

The fields come from the dataclasses and their type hints, so a float
field added later is covered without an edit here.
"""

import dataclasses
import math
import typing
import warnings

import pytest

from steptrack import AntennaState, OrbitConfig, ReceiverConfig, TrackerConfig
from steptrack.scenario import load_scenario, resolve_scenario_path

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308, -1.0]

VALID = {
    "OrbitConfig": lambda: OrbitConfig(180.0, 72.0),
    "AntennaState": lambda: AntennaState(180.0, 72.0),
    "ReceiverConfig": ReceiverConfig,
    "TrackerConfig": TrackerConfig,
    "Scenario": lambda: load_scenario(resolve_scenario_path("desk_figure8")),
}


def _edge_cases(config):
    """(field, value) pairs: each float field, or one item of each tuple of
    floats, replaced by each edge value."""
    hints = typing.get_type_hints(type(config))
    for field in dataclasses.fields(config):
        hint, value = hints[field.name], getattr(config, field.name)
        if hint is float:
            yield from ((field.name, edge) for edge in EDGES)
        elif typing.get_origin(hint) is tuple and set(typing.get_args(hint)) == {float}:
            for i in range(len(value)):
                yield from (
                    (field.name, (*value[:i], edge, *value[i + 1:])) for edge in EDGES
                )


@pytest.mark.parametrize("name", VALID)
def test_every_float_field_is_finite_or_refused_by_name(name):
    config = VALID[name]()
    cases = list(_edge_cases(config))
    assert cases, f"{name} has no float field"
    for field, value in cases:
        finite = all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                dataclasses.replace(config, **{field: value})
            except ValueError as exc:
                assert finite or str(exc).startswith(f"{field} must be finite, got "), (
                    field, value, exc
                )
            else:
                assert finite, f"{name}.{field}={value} was accepted"
