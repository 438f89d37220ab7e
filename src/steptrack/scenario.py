"""Scenario file loading: one YAML file describes a whole simulation run.

Keys carry explicit units in their names (``cycle_period_s``,
``k_y_db_per_deg2``). Anything optional falls back to the library
defaults; validation errors name the offending section and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .antenna import DEFAULT_RESOLVER_STEP, AntennaState, ReceiverConfig
from .orbit import SIDEREAL_DAY_S, OrbitConfig
from .tracker import TrackerConfig


class ScenarioError(Exception):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    orbit: OrbitConfig
    antenna: AntennaState
    receiver: ReceiverConfig
    tracker: TrackerConfig
    peak_level_db: float
    duration: float
    seed: int
    output: str


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ScenarioError(f"section '{name}' must be a mapping")
    return value


def _field_name(section_name: str, key: str) -> str:
    return f"{section_name}.{key}" if section_name else key


def _number(section: dict, section_name: str, key: str, default=None):
    if key not in section:
        if default is None:
            raise ScenarioError(
                f"missing required field '{_field_name(section_name, key)}'"
            )
        return default
    value = section[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"field '{_field_name(section_name, key)}' must be a number")
    if not math.isfinite(value):
        raise ScenarioError(f"field '{_field_name(section_name, key)}' must be finite")
    return float(value)


def _pair(section: dict, section_name: str, key: str, default):
    if key not in section:
        return default
    value = section[key]
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(f"field '{section_name}.{key}' must be a [min, max] pair")
    lo, hi = float(value[0]), float(value[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioError(f"field '{section_name}.{key}' must be finite")
    return (lo, hi)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a top-level mapping")

    parabola = _section(doc, "parabola")
    k_el = _number(parabola, "parabola", "k_y_db_per_deg2")
    peak_level = _number(parabola, "parabola", "peak_level_db")

    orb = _section(doc, "orbit")
    try:
        orbit = OrbitConfig(
            center_azimuth=_number(orb, "orbit", "center_azimuth_deg"),
            center_elevation=_number(orb, "orbit", "center_elevation_deg"),
            azimuth_amplitude=_number(orb, "orbit", "azimuth_amplitude_deg", 16.0),
            elevation_amplitude=_number(orb, "orbit", "elevation_amplitude_deg", 1.0),
            period=_number(orb, "orbit", "period_s", SIDEREAL_DAY_S),
            phase=_number(orb, "orbit", "phase_rad", 0.0),
            axis_mode=orb.get("axis_mode", "azimuth-major"),
            drift_deg_per_day=_number(orb, "orbit", "drift_deg_per_day", 0.0),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid orbit configuration: {exc}") from exc

    ant = _section(doc, "antenna")
    try:
        start_az = _number(ant, "antenna", "azimuth_deg", orbit.center_azimuth)
        start_el = _number(ant, "antenna", "elevation_deg", orbit.center_elevation)
        antenna = AntennaState(
            true_azimuth=start_az,
            true_elevation=start_el,
            target_azimuth=start_az,
            target_elevation=start_el,
            az_slew_rate=_number(ant, "antenna", "az_slew_rate_deg_s", 1.0),
            el_slew_rate=_number(ant, "antenna", "el_slew_rate_deg_s", 1.0),
            az_limits=_pair(ant, "antenna", "az_limits_deg", (0.0, 360.0)),
            el_limits=_pair(ant, "antenna", "el_limits_deg", (5.0, 90.0)),
            resolver_step=_number(
                ant, "antenna", "resolver_step_deg", DEFAULT_RESOLVER_STEP
            ),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid antenna configuration: {exc}") from exc

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("field 'seed' must be an integer")

    rx_sec = _section(doc, "receiver")
    try:
        receiver = ReceiverConfig(
            floor_db=_number(rx_sec, "receiver", "floor_db", -24.0),
            max_db=_number(rx_sec, "receiver", "max_db", 6.0),
            noise_sigma=_number(rx_sec, "receiver", "noise_sigma_db", 0.0),
            drift_amplitude=_number(rx_sec, "receiver", "drift_amplitude_db", 0.0),
            drift_period=_number(rx_sec, "receiver", "drift_period_s", 86400.0),
            rng_seed=seed,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid receiver configuration: {exc}") from exc

    trk = _section(doc, "tracker")
    mode = trk.get("sampling_mode", "continuous")
    estimator = trk.get("estimator", "rls")
    carry = trk.get("carry_rls_state", True)
    if not isinstance(carry, bool):
        raise ScenarioError("field 'tracker.carry_rls_state' must be a boolean")
    try:
        tracker = TrackerConfig(
            rect_half_width_az=_number(trk, "tracker", "rect_half_width_az_deg", 0.2),
            rect_half_width_el=_number(trk, "tracker", "rect_half_width_el_deg", 0.05),
            dwell_time=_number(trk, "tracker", "dwell_time_s", 1.0),
            sample_interval=_number(trk, "tracker", "sample_interval_s", 0.02),
            cycle_period=_number(trk, "tracker", "cycle_period_s", 600.0),
            sampling_mode=mode,
            estimator=estimator,
            forgetting=_number(trk, "tracker", "forgetting", 0.98),
            rls_delta=_number(trk, "tracker", "rls_delta", 1e4),
            k_el=_number(trk, "tracker", "k_y_db_per_deg2", k_el),
            coeff_floor=_number(trk, "tracker", "kx_floor_db_per_deg2", 0.01),
            carry_rls_state=carry,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid tracker configuration: {exc}") from exc

    duration = _number(doc, "", "duration_s")
    if duration < 0:
        raise ScenarioError("field 'duration_s' must be non-negative")

    output = doc.get("output", "telemetry.csv")
    if not isinstance(output, str):
        raise ScenarioError("field 'output' must be a string path")

    return Scenario(
        orbit=orbit,
        antenna=antenna,
        receiver=receiver,
        tracker=tracker,
        peak_level_db=peak_level,
        duration=duration,
        seed=seed,
        output=output,
    )


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


def bundled_scenarios() -> list[str]:
    """Names of scenarios shipped with the package."""
    root = resources.files("steptrack").joinpath("scenarios")
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))
