"""Scenario file loading: one YAML file describes a whole simulation run.

Keys carry explicit units in their names (``cycle_period_s``,
``k_y_db_per_deg2``). Each key sets one field of a config class, through
the schema below. A key left out takes that field's default from its
class, and a key the schema does not list is an error. Validation errors
name the offending section and key.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

from .antenna import AntennaState, ReceiverConfig
from .orbit import OrbitConfig
from .tracker import TrackerConfig


class ScenarioError(Exception):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    orbit: OrbitConfig
    antenna: AntennaState
    receiver: ReceiverConfig
    tracker: TrackerConfig
    truth_k_el: float  # dB/deg^2, elevation curvature of the true surface
    peak_level_db: float
    duration: float  # s
    output: str = "telemetry.csv"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if not self.truth_k_el < 0:
            raise ValueError(f"truth_k_el must be strictly negative, got {self.truth_k_el}")


# The scenario schema. A top-level key maps to the (class, field) it sets.
# A section maps to (class, table): its table maps each key to a field of
# that class, or to the (class, field) of another. A value must have the
# type that its class annotates the field with.
_SCHEMA = {
    "duration_s": (Scenario, "duration"),
    "seed": (ReceiverConfig, "rng_seed"),
    "output": (Scenario, "output"),
    "orbit": (OrbitConfig, {
        "center_azimuth_deg": "center_azimuth",
        "center_elevation_deg": "center_elevation",
        "azimuth_amplitude_deg": "azimuth_amplitude",
        "elevation_amplitude_deg": "elevation_amplitude",
        "period_s": "period",
        "phase_rad": "phase",
        "axis_mode": "axis_mode",
        "drift_deg_per_day": "drift_deg_per_day",
    }),
    "antenna": (AntennaState, {
        "azimuth_deg": "true_azimuth",
        "elevation_deg": "true_elevation",
        "az_slew_rate_deg_s": "az_slew_rate",
        "el_slew_rate_deg_s": "el_slew_rate",
        "az_limits_deg": "az_limits",
        "el_limits_deg": "el_limits",
        "resolver_step_deg": "resolver_step",
    }),
    "receiver": (ReceiverConfig, {
        "floor_db": "floor_db",
        "max_db": "max_db",
        "noise_sigma_db": "noise_sigma",
        "drift_amplitude_db": "drift_amplitude",
        "drift_period_s": "drift_period",
    }),
    # The true surface that run_scenario simulates. Its curvature is also
    # the default of the tracker's a-priori tracker.k_el.
    "parabola": (Scenario, {
        "k_y_db_per_deg2": "truth_k_el",
        "peak_level_db": "peak_level_db",
    }),
    "tracker": (TrackerConfig, {
        "rect_half_width_az_deg": "rect_half_width_az",
        "rect_half_width_el_deg": "rect_half_width_el",
        "dwell_time_s": "dwell_time",
        "sample_interval_s": "sample_interval",
        "cycle_period_s": "cycle_period",
        "sampling_mode": "sampling_mode",
        "estimator": "estimator",
        "forgetting": "forgetting",
        "k_y_db_per_deg2": "k_el",
    }),
}

# A field that no key sets takes the value of another field, where listed
# here, or else its class default; a field with neither is required. The
# antenna starts, at rest, on the orbit centre.
_FALLBACKS = {
    (AntennaState, "true_azimuth"): (OrbitConfig, "center_azimuth"),
    (AntennaState, "true_elevation"): (OrbitConfig, "center_elevation"),
    (AntennaState, "target_azimuth"): (AntennaState, "true_azimuth"),
    (AntennaState, "target_elevation"): (AntennaState, "true_elevation"),
    (TrackerConfig, "k_el"): (Scenario, "truth_k_el"),
}

_type_hints = functools.cache(get_type_hints)


def _check(name: str, value, kind):
    """``value`` as an instance of ``kind``, or ScenarioError naming ``name``.

    An int is taken for a float, never a bool for a number; a float must be
    finite, and a tuple is given as a list of its items.
    """
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        if not (isinstance(value, list) and len(value) == len(kinds)):
            raise ScenarioError(f"field '{name}' must be a list of {len(kinds)} items")
        return tuple(_check(name, item, k) for item, k in zip(value, kinds))
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"field '{name}' must be finite, got {value}")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file: {exc}") from exc
    values = defaultdict(dict)
    _read(doc, "", None, _SCHEMA, values)
    for (cls, field), (source, source_field) in _FALLBACKS.items():
        values[cls].setdefault(field, values[source][source_field])
    configs = {
        section: _build(section, cls, values[cls])
        for section, (cls, table) in _SCHEMA.items()
        if isinstance(table, dict) and cls is not Scenario
    }
    return _build("scenario", Scenario, {**values[Scenario], **configs})


def _read(doc, prefix: str, owner, table: dict, values: dict) -> None:
    """Check a mapping against ``table``, storing ``values[class][field]``.

    The keys given are checked in file order, so an error names the first
    bad one; then the keys left out, of which a required one is an error.
    """
    if not isinstance(doc, dict):
        where = f"section '{prefix[:-1]}'" if prefix else "scenario file"
        raise ScenarioError(f"{where} must be a mapping")
    for key in [*doc, *(k for k in table if k not in doc)]:
        if key not in table:
            raise ScenarioError(f"unknown field '{prefix}{key}'")
        cls, target = table[key] if isinstance(table[key], tuple) else (owner, table[key])
        name = prefix + key
        if isinstance(target, dict):
            section = doc.get(key)
            _read({} if section is None else section, name + ".", cls, target, values)
        elif key in doc:
            values[cls][target] = _check(name, doc[key], _type_hints(cls)[target])
        elif (cls, target) not in _FALLBACKS and _default(cls, target) is MISSING:
            raise ScenarioError(f"missing required field '{name}'")


def _default(cls, name: str):
    return next(f.default for f in fields(cls) if f.name == name)


def _build(section: str, cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid {section} configuration: {exc}") from exc


def resolve_scenario_path(name_or_path: str) -> Path:
    """Resolve a filesystem path or the name of a bundled scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p
    stem = name_or_path if name_or_path.endswith(".yaml") else name_or_path + ".yaml"
    bundled = resources.files("steptrack").joinpath("scenarios").joinpath(stem)
    if bundled.is_file():
        return Path(str(bundled))
    raise ScenarioError(
        f"scenario '{name_or_path}' is neither a file nor a bundled scenario"
    )
