"""Simulated antenna plant and beacon receiver.

The plant is a pair of slew-rate-limited axes with resolver-quantized
readback; the receiver turns the ideal beacon surface into a noisy,
floor-clamped dB reading and a 0-10 V telemetry voltage.

``AntennaState`` is the plant's configuration and start pose; ``command``
checks a slew target and ``tick`` returns a copy moved toward one.
``tracker.run_scenario`` plans the run in plain floats, advanced by
``_approach`` (the arithmetic of ``tick``) with readbacks from
``quantize_angle``, and calls ``command`` on each command the tracker
gives at its decisions. It measures the planned poses with ``measure``
as each fit needs their levels, and computes their volts with
``receiver_voltage`` once a pass of a bounded number of rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_fields
from .beacon import ParabolaParams, beacon_level

# 16-bit resolver-to-digital conversion, in degrees per count.
DEFAULT_RESOLVER_STEP = 360.0 / 65536.0


class AxisLimitError(ValueError):
    """Commanded or configured angle falls outside an axis travel range."""


@dataclass(frozen=True)
class AntennaState:
    true_azimuth: float  # deg
    true_elevation: float  # deg
    az_slew_rate: float = 1.0  # deg/s
    el_slew_rate: float = 1.0  # deg/s
    az_limits: tuple[float, float] = (0.0, 360.0)
    el_limits: tuple[float, float] = (5.0, 90.0)
    resolver_step: float = DEFAULT_RESOLVER_STEP  # deg per count

    def __post_init__(self) -> None:
        check_fields(self, positive=("az_slew_rate", "el_slew_rate", "resolver_step"))
        # quantize_angle rounds angle / resolver_step to an int.
        reach = max(map(abs, (*self.az_limits, *self.el_limits)))
        if not math.isfinite(reach / self.resolver_step):
            raise ValueError(
                f"resolver_step {self.resolver_step} is too fine for limits "
                f"up to {reach} deg"
            )
        for name, value, (lo, hi) in (
            ("true_azimuth", self.true_azimuth, self.az_limits),
            ("true_elevation", self.true_elevation, self.el_limits),
        ):
            if not lo <= value <= hi:
                raise AxisLimitError(f"{name} must be within [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True)
class ReceiverConfig:
    """Beacon receiver calibration and disturbance model.

    ``floor_db`` is the clamp below which the receiver reports nothing
    lower; the 0-10 V telemetry output maps ``floor_db`` to 0 V and
    ``max_db`` to 10 V. Slow sinusoidal drift stands in for weather and
    time-of-day variation of the upper level.

    Only the floor is a clamp on the level. A level above ``max_db`` (a
    surface peak above it, drift or noise) is reported unclamped in dB;
    only its voltage saturates at 10 V.
    """

    floor_db: float = -24.0
    max_db: float = 6.0
    noise_sigma: float = 0.0  # dB
    drift_amplitude: float = 0.0  # dB
    drift_period: float = 86400.0  # s
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, positive=("drift_period",), non_negative=("noise_sigma",))
        if self.max_db <= self.floor_db:
            raise ValueError(
                f"max_db ({self.max_db}) must exceed floor_db ({self.floor_db})"
            )
        seed = self.rng_seed
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {seed!r}")


def command(
    state: AntennaState, target_azimuth: float, target_elevation: float
) -> None:
    """Raise AxisLimitError if a slew target lies outside the axis limits."""
    lo, hi = state.az_limits
    if not lo <= target_azimuth <= hi:
        raise AxisLimitError(
            f"target azimuth {target_azimuth} outside limits [{lo}, {hi}]"
        )
    lo, hi = state.el_limits
    if not lo <= target_elevation <= hi:
        raise AxisLimitError(
            f"target elevation {target_elevation} outside limits [{lo}, {hi}]"
        )


def _approach(current: float, target: float, max_step: float) -> float:
    delta = target - current
    if abs(delta) <= max_step:
        return target
    return current + math.copysign(max_step, delta)


def tick(
    state: AntennaState, target_azimuth: float, target_elevation: float, dt: float
) -> AntennaState:
    """Advance both axes toward the target by at most slew_rate*dt.

    Motion on the two axes is independent and simultaneous; an axis
    never overshoots its target.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    az = _approach(state.true_azimuth, target_azimuth, state.az_slew_rate * dt)
    el = _approach(state.true_elevation, target_elevation, state.el_slew_rate * dt)
    if az == state.true_azimuth and el == state.true_elevation:
        return state
    return replace(state, true_azimuth=az, true_elevation=el)


def quantize_angle(angle: float, step: float) -> float:
    """Round to the nearest multiple of the resolver step."""
    return round(angle / step) * step


def measure(
    azimuth: float | np.ndarray,
    elevation: float | np.ndarray,
    params: ParabolaParams,
    rx: ReceiverConfig,
    t: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Beacon level through the receiver at each time in ``t``.

    ``azimuth`` and ``elevation`` are the true (not readback) pointing, one
    value per time for a moving plant or a single value for a plant at
    rest. ``params`` holds one surface per time (array ``k_az``,
    ``peak_az`` and ``peak_el``), peaked at the satellite's direction then.
    Drift and Gaussian noise are added and the floor clamp applied. The
    noise is one batch from ``rng``, the same stream as one draw per time;
    the simulation passes one persistent generator seeded from
    ``rx.rng_seed``. The readbacks are left to the caller
    (``quantize_angle``).
    """
    raw = beacon_level(params, azimuth, elevation)  # a new array or a float
    if rx.drift_amplitude != 0.0:
        raw += rx.drift_amplitude * np.sin(2.0 * math.pi * t / rx.drift_period)
    if rx.noise_sigma > 0.0:
        raw += rng.normal(0.0, rx.noise_sigma, size=len(t))
    # One level per time, also from a single surface and pose.
    raw = np.broadcast_to(raw, np.shape(t))
    return np.where(raw > rx.floor_db, raw, rx.floor_db)


def receiver_voltage(level: np.ndarray, rx: ReceiverConfig) -> np.ndarray:
    """Affine dB-to-volts telemetry map of each level, clamped to [0, 10] V."""
    v = 10.0 * (level - rx.floor_db) / (rx.max_db - rx.floor_db)
    # -0.0 clamps to +0.0, as Python's max(0.0, v) gives it; np.maximum
    # would keep -0.0.
    v = np.where(v > 0.0, v, 0.0)
    return np.where(v < 10.0, v, 10.0)
