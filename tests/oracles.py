"""Per-sample reference forms of the package's formulas.

The package computes each formula once, over arrays of samples. The
functions here take one sample at a time, in plain floats where the
formula allows, and the property tests require the package to match them
bit for bit. ``ls_fit`` and ``rls_update`` take regression rows one by
one and hand them to the package's solvers, so that a fit over many rows
can be checked against the same rows fed one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from steptrack import estimators
from steptrack.antenna import AntennaState, BeaconSample, ReceiverConfig, quantize_angle
from steptrack.beacon import ParabolaParams, QuadraticCoefficients, beacon_level
from steptrack.estimators import RlsState
from steptrack.orbit import OrbitConfig


def satellite_direction(config: OrbitConfig, t: float) -> tuple[float, float]:
    """True satellite (azimuth, elevation) in degrees at time t seconds."""
    theta = 2.0 * math.pi * t / config.period + config.phase
    drift = config.drift_deg_per_day * t / 86400.0
    if config.axis_mode == "azimuth-major":
        major = config.azimuth_amplitude * math.sin(theta)
        minor = 0.5 * config.elevation_amplitude * math.sin(2.0 * theta)
        return config.center_azimuth + major + drift, config.center_elevation + minor
    major = config.elevation_amplitude * math.sin(theta)
    minor = 0.5 * config.azimuth_amplitude * math.sin(2.0 * theta)
    return config.center_azimuth + minor, config.center_elevation + major + drift


def az_coeff_from_elevation(k_el: float, elevation: float) -> float:
    """Azimuth curvature ``k_el * cos(elevation)**2`` at one elevation.

    Raises ValueError if elevation is outside [0, 90] or k_el >= 0.
    """
    if not 0.0 <= elevation <= 90.0:
        raise ValueError(f"elevation must be in [0, 90] deg, got {elevation}")
    if not k_el < 0:
        raise ValueError(f"k_el must be strictly negative, got {k_el}")
    c = math.cos(math.radians(elevation))
    return k_el * c * c


def read_resolvers(state: AntennaState) -> tuple[float, float]:
    """Resolver-quantized (azimuth, elevation) readback in degrees."""
    return (
        quantize_angle(state.true_azimuth, state.resolver_step),
        quantize_angle(state.true_elevation, state.resolver_step),
    )


def measure(
    state: AntennaState,
    params: ParabolaParams,
    rx: ReceiverConfig,
    t: float,
    rng: np.random.Generator,
) -> BeaconSample:
    """Measure the beacon through the receiver at time t.

    ``params`` must carry the satellite's current direction as its peak.
    The level is evaluated at the true (not readback) pointing, then
    drift and Gaussian noise are added and the floor clamp applied. The
    returned angles are the resolver readbacks. Noise is one draw from
    ``rng``.
    """
    raw = beacon_level(params, state.true_azimuth, state.true_elevation)
    if rx.drift_amplitude != 0.0:
        raw += rx.drift_amplitude * math.sin(2.0 * math.pi * t / rx.drift_period)
    if rx.noise_sigma > 0.0:
        raw += rng.normal(0.0, rx.noise_sigma)
    level = raw if raw > rx.floor_db else rx.floor_db
    az, el = read_resolvers(state)
    return BeaconSample(t=t, azimuth=az, elevation=el, level=level)


def receiver_voltage(level: float, rx: ReceiverConfig) -> float:
    """Affine dB-to-volts telemetry map, clamped to [0, 10] V."""
    v = 10.0 * (level - rx.floor_db) / (rx.max_db - rx.floor_db)
    return min(10.0, max(0.0, v))


@dataclass(frozen=True)
class RegressionRow:
    """One sample mapped into the linear regression."""

    regressors: np.ndarray  # [azimuth, elevation, 1.0]
    response: float


def regression_row(sample: BeaconSample, k: QuadraticCoefficients) -> RegressionRow:
    """Map a beacon sample to its linear-regression row."""
    az, el = sample.azimuth, sample.elevation
    response = sample.level - k.k_az * az * az - k.k_el * el * el
    return RegressionRow(
        regressors=np.array([az, el, 1.0]), response=float(response)
    )


def ls_fit(rows: Sequence[RegressionRow]) -> np.ndarray:
    """Least-squares coefficient vector for a batch of rows."""
    return estimators.ls_fit(
        np.array([row.regressors for row in rows]),
        np.array([row.response for row in rows]),
    )


def rls_update(state: RlsState, row: RegressionRow) -> tuple[RlsState, float]:
    """One recursion step; returns the new state and the prediction residual."""
    return estimators.rls_update(
        state, row.regressors[None, :], np.array([row.response])
    )
