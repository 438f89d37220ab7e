"""Apparent satellite direction over time for an inclined geosynchronous orbit.

Seen from a ground station, such a satellite traces a daily figure-8
(analemma). We reproduce it with a lemniscate-of-Gerono parametrization:
one axis swings at the orbital frequency, the other at twice that
frequency, which crosses itself once per period at the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_fields

SIDEREAL_DAY_S = 86164.0

AXIS_MODES = ("azimuth-major", "elevation-major")


@dataclass(frozen=True)
class OrbitConfig:
    """Figure-8 geometry and timing.

    ``axis_mode`` selects which axis carries the large single-frequency
    swing; the other axis carries the half-amplitude double-frequency
    lobe. For a station near the equator the azimuth is the major axis.
    ``drift_deg_per_day`` adds a slow secular drift to the major axis
    (off by default, for reproducibility).
    """

    center_azimuth: float  # deg
    center_elevation: float  # deg
    azimuth_amplitude: float = 16.0  # deg, half peak-to-peak
    elevation_amplitude: float = 1.0  # deg, half peak-to-peak
    period: float = SIDEREAL_DAY_S  # s
    phase: float = 0.0  # rad
    axis_mode: str = "azimuth-major"
    drift_deg_per_day: float = 0.0

    def __post_init__(self) -> None:
        check_fields(
            self, positive=("period",),
            non_negative=("azimuth_amplitude", "elevation_amplitude"),
            choices={"axis_mode": AXIS_MODES},
        )
        lo = self.center_elevation - self.elevation_amplitude
        hi = self.center_elevation + self.elevation_amplitude
        if lo < 0.0 or hi > 90.0:
            raise ValueError(
                f"elevation swing [{lo}, {hi}] leaves the [0, 90] deg range"
            )


def satellite_direction(config: OrbitConfig, t):
    """True satellite (azimuth, elevation) in degrees at time ``t`` seconds.

    ``t`` may be a float or an array of times; each angle then has its shape.
    """
    theta = 2.0 * math.pi * t / config.period + config.phase
    drift = config.drift_deg_per_day * t / 86400.0
    if config.axis_mode == "azimuth-major":
        major = config.azimuth_amplitude * np.sin(theta)
        minor = 0.5 * config.elevation_amplitude * np.sin(2.0 * theta)
        return config.center_azimuth + major + drift, config.center_elevation + minor
    major = config.elevation_amplitude * np.sin(theta)
    minor = 0.5 * config.azimuth_amplitude * np.sin(2.0 * theta)
    return config.center_azimuth + minor, config.center_elevation + major + drift
