"""Timed step-track cycle: acquire, estimate, move, wait.

Each cycle walks a small rectangle around the current pointing while
recording beacon samples, fits the peak from them, slews to the fitted
peak, and then holds still until the next cycle is due. Holding between
cycles limits mechanical wear; the beacon level decays while the
satellite drifts and is restored by the next cycle, which produces the
characteristic sawtooth level trace.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .antenna import (
    AntennaState,
    BeaconSample,
    ReceiverConfig,
    command,
    measure,
    measure_array,
    read_resolvers,
    receiver_voltage,
    receiver_voltage_array,
    tick,
)
from .beacon import (
    DEFAULT_K_EL,
    ParabolaParams,
    QuadraticCoefficients,
    az_coeff_from_elevation,
    az_coeff_from_elevation_array,
)
from .estimators import (
    DEFAULT_COEFF_FLOOR,
    DEFAULT_RLS_DELTA,
    ESTIMATORS,
    EstimationError,
    PeakEstimate,
    fit_peak,
)
# Unused here since the cycle fits through ``fit_peak``, but bound as the
# layer names through which perfbench/tracer.py traces this module.
from .estimators import (  # noqa: F401
    ls_fit, recover_peak, regression_row, rls_init, rls_recover, rls_update,
)
from .orbit import OrbitConfig, satellite_direction, satellite_direction_array
from .telemetry import TelemetryLog, TelemetryRecord

logger = logging.getLogger(__name__)

SAMPLING_MODES = ("continuous", "corner-only")


class PatternInfeasibleError(Exception):
    """A displacement-pattern corner falls outside the axis limits."""


class TrackerPhase(str, enum.Enum):
    ACQUIRE = "acquire"
    ESTIMATE = "estimate"
    MOVE = "move"
    WAIT = "wait"


@dataclass(frozen=True)
class TrackerConfig:
    """Cycle timing, rectangle geometry, sampling and estimator choice.

    ``sampling_mode`` is either "continuous" (a sample every tick while
    the pattern runs, the 20 ms regime) or "corner-only" (samples only
    while dwelling ``dwell_time`` at each corner, the classic scheme;
    dwell 0 takes exactly one sample per corner). ``k_el`` is the
    a-priori elevation curvature; the azimuth curvature is re-derived
    from the pattern-center elevation at each cycle start.
    """

    rect_half_width_az: float = 0.2  # deg
    rect_half_width_el: float = 0.05  # deg
    dwell_time: float = 1.0  # s
    sample_interval: float = 0.02  # s
    cycle_period: float = 600.0  # s
    sampling_mode: str = "continuous"
    estimator: str = "rls"
    forgetting: float = 0.98
    rls_delta: float = DEFAULT_RLS_DELTA
    k_el: float = DEFAULT_K_EL
    coeff_floor: float = DEFAULT_COEFF_FLOOR
    carry_rls_state: bool = True

    def __post_init__(self) -> None:
        for name in (
            "rect_half_width_az", "rect_half_width_el", "dwell_time",
            "sample_interval", "cycle_period", "forgetting", "rls_delta",
            "k_el", "coeff_floor",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rect_half_width_az <= 0 or self.rect_half_width_el <= 0:
            raise ValueError("rectangle half-widths must be positive")
        if self.dwell_time < 0:
            raise ValueError("dwell_time must be non-negative")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.cycle_period <= 0:
            raise ValueError("cycle_period must be positive")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"sampling_mode must be one of {SAMPLING_MODES}, "
                f"got {self.sampling_mode!r}"
            )
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {self.forgetting}")
        if self.rls_delta <= 0:
            raise ValueError("rls_delta must be positive")
        if self.k_el >= 0:
            raise ValueError("k_el must be strictly negative")
        if self.coeff_floor <= 0:
            raise ValueError("coeff_floor must be positive")


def plan_pattern(
    center: tuple[float, float],
    config: TrackerConfig,
    az_limits: tuple[float, float] | None = None,
    el_limits: tuple[float, float] | None = None,
) -> list[tuple[float, float]]:
    """Closed rectangular circuit around the center: 4 corners plus return.

    Corners sit at center +/- the configured half-widths and are visited
    counter-clockwise from the lower-left corner, ending back there.

    Raises PatternInfeasibleError when limits are supplied and a corner
    falls outside them.
    """
    caz, cel = center
    w = config.rect_half_width_az
    h = config.rect_half_width_el
    corners = [
        (caz - w, cel - h),
        (caz + w, cel - h),
        (caz + w, cel + h),
        (caz - w, cel + h),
    ]
    for az, el in corners:
        if az_limits is not None and not az_limits[0] <= az <= az_limits[1]:
            raise PatternInfeasibleError(
                f"corner azimuth {az} outside limits {az_limits}"
            )
        if el_limits is not None and not el_limits[0] <= el <= el_limits[1]:
            raise PatternInfeasibleError(
                f"corner elevation {el} outside limits {el_limits}"
            )
    return corners + corners[:1]


class StepTracker:
    """Drives the four-phase tracking cycle, one call per sample tick.

    ``step`` consumes the latest beacon sample and plant state and may
    return an (azimuth, elevation) command for the plant. Phase order is
    always acquire -> estimate -> move -> wait; a failed cycle (pattern
    infeasible, too few samples, degenerate, rank-deficient or
    non-finite fit) logs the reason, re-commands the pattern center and
    falls through to wait.

    The cycle's samples are buffered and fitted once, at estimate, by
    ``fit_peak`` centred on the pattern center. With ``carry_rls_state``
    the RLS fit starts from the previous cycle's peak.
    """

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.phase = TrackerPhase.WAIT
        self.cycle_index = -1
        self.pattern_center: tuple[float, float] | None = None
        self.last_estimate: PeakEstimate | None = None
        self.next_cycle_time: float | None = None
        self._waypoints: list[tuple[float, float]] = []
        self._waypoint_idx = 0
        self._dwell_until: float | None = None
        self._move_target: tuple[float, float] | None = None
        self._samples: list[tuple[float, float, float]] = []
        self._k: QuadraticCoefficients | None = None

    def step(
        self, plant: AntennaState, sample: BeaconSample, now: float
    ) -> tuple[float, float] | None:
        if self.next_cycle_time is None:
            self.next_cycle_time = now
        if self.phase is TrackerPhase.WAIT:
            if now >= self.next_cycle_time:
                return self._begin_cycle(plant, sample, now)
            return None
        if self.phase is TrackerPhase.ACQUIRE:
            return self._acquire(plant, sample, now)
        if self.phase is TrackerPhase.ESTIMATE:
            return self._estimate(plant)
        return self._move(plant, sample)

    # -- phase handlers -------------------------------------------------

    def _begin_cycle(
        self, plant: AntennaState, sample: BeaconSample, now: float
    ) -> tuple[float, float] | None:
        self.cycle_index += 1
        self.next_cycle_time = now + self.config.cycle_period
        self.pattern_center = (sample.azimuth, sample.elevation)
        k_az = az_coeff_from_elevation(self.config.k_el, self.pattern_center[1])
        if abs(k_az) < self.config.coeff_floor:
            logger.warning(
                "cycle %d skipped: azimuth curvature %.3g below floor %.3g",
                self.cycle_index,
                k_az,
                self.config.coeff_floor,
            )
            self.phase = TrackerPhase.WAIT
            return None
        self._k = QuadraticCoefficients(k_az=k_az, k_el=self.config.k_el)
        try:
            self._waypoints = plan_pattern(
                self.pattern_center,
                self.config,
                az_limits=plant.az_limits,
                el_limits=plant.el_limits,
            )
        except PatternInfeasibleError as exc:
            logger.warning("cycle %d skipped: %s", self.cycle_index, exc)
            self.phase = TrackerPhase.WAIT
            return None
        self._waypoint_idx = 0
        self._dwell_until = None
        self._samples = []
        self.phase = TrackerPhase.ACQUIRE
        if self.config.sampling_mode == "continuous":
            self._collect(sample)
        return self._waypoints[0]

    def _acquire(
        self, plant: AntennaState, sample: BeaconSample, now: float
    ) -> tuple[float, float] | None:
        if self.config.sampling_mode == "continuous":
            self._collect(sample)
        waypoint = self._waypoints[self._waypoint_idx]
        if not self._arrived(plant, sample, waypoint):
            return None
        at_corner = self._waypoint_idx < 4
        if self.config.sampling_mode == "corner-only" and at_corner:
            if self._dwell_until is None:
                self._dwell_until = now + self.config.dwell_time
            self._collect(sample)
            if now < self._dwell_until:
                return None
        self._dwell_until = None
        self._waypoint_idx += 1
        if self._waypoint_idx < len(self._waypoints):
            return self._waypoints[self._waypoint_idx]
        self.phase = TrackerPhase.ESTIMATE
        return None

    def _estimate(self, plant: AntennaState) -> tuple[float, float] | None:
        config = self.config
        az, el, level = np.reshape(self._samples, (-1, 3)).T
        try:
            estimate, _ = fit_peak(
                az, el, level, self.pattern_center, self._k, config.estimator,
                config.forgetting, config.rls_delta, config.coeff_floor,
                prior=self.last_estimate if config.carry_rls_state else None,
            )
            # A diverged recursion yields NaN or inf, which must not
            # reach the plant.
            values = (estimate.azimuth, estimate.elevation, estimate.level)
            if not all(map(math.isfinite, values)):
                raise EstimationError(f"non-finite estimate {estimate}")
        except EstimationError as exc:
            logger.warning("cycle %d aborted: %s", self.cycle_index, exc)
            self.phase = TrackerPhase.WAIT
            return self._clamp_to_limits(self.pattern_center, plant)
        self.last_estimate = estimate
        self._move_target = self._clamp_to_limits(
            (estimate.azimuth, estimate.elevation), plant
        )
        self.phase = TrackerPhase.MOVE
        return self._move_target

    def _move(self, plant: AntennaState, sample: BeaconSample) -> None:
        if self._arrived(plant, sample, self._move_target):
            self.phase = TrackerPhase.WAIT
        return None

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _clamp_to_limits(
        target: tuple[float, float], plant: AntennaState
    ) -> tuple[float, float]:
        return (
            min(max(target[0], plant.az_limits[0]), plant.az_limits[1]),
            min(max(target[1], plant.el_limits[0]), plant.el_limits[1]),
        )

    def _arrived(
        self,
        plant: AntennaState,
        sample: BeaconSample,
        target: tuple[float, float],
    ) -> bool:
        tol = plant.resolver_step
        return (
            abs(sample.azimuth - target[0]) <= tol
            and abs(sample.elevation - target[1]) <= tol
        )

    def _collect(self, sample: BeaconSample) -> None:
        self._samples.append((sample.azimuth, sample.elevation, sample.level))


def pattern_duration(config: TrackerConfig, plant: AntennaState) -> float:
    """Worst-case time to run the displacement pattern, in seconds.

    Approach to the first corner, the four circuit legs, plus corner
    dwells in corner-only mode.
    """
    w = config.rect_half_width_az
    h = config.rect_half_width_el
    approach = max(w / plant.az_slew_rate, h / plant.el_slew_rate)
    perimeter = 2.0 * (2.0 * w / plant.az_slew_rate) + 2.0 * (
        2.0 * h / plant.el_slew_rate
    )
    dwells = 4.0 * config.dwell_time if config.sampling_mode == "corner-only" else 0.0
    return approach + perimeter + dwells


def _wait_span_end(
    tracker: StepTracker, plant: AntennaState, i: int, dt: float, n_steps: int
) -> int:
    """End (exclusive) of the WAIT span that starts at step ``i``.

    A span is the steps before the next cycle is due while the tracker
    waits with the plant exactly at its target, so that ``tick`` leaves it
    unchanged. Returns ``i`` or less when step ``i`` starts no span.
    """
    due = tracker.next_cycle_time
    if (
        tracker.phase is not TrackerPhase.WAIT
        or due is None
        or plant.true_azimuth != plant.target_azimuth
        or plant.true_elevation != plant.target_elevation
    ):
        return i
    # The first step j with j * dt >= due; the quotient may round either way.
    end = math.ceil(due / dt)
    while end > 0 and (end - 1) * dt >= due:
        end -= 1
    while end * dt < due:
        end += 1
    return min(end, n_steps)


def run_scenario(
    orbit: OrbitConfig,
    plant: AntennaState,
    rx: ReceiverConfig,
    config: TrackerConfig,
    duration: float,
    peak_level_db: float | None = None,
) -> TelemetryLog:
    """Run the closed loop for ``duration`` seconds of simulated time.

    The clock advances in ``config.sample_interval`` steps; every step
    measures the beacon, feeds the tracker, applies any resulting plant
    command and integrates the plant motion, emitting one telemetry
    record. The true beacon surface peaks at the satellite direction
    with level ``peak_level_db`` (the receiver's max_db when omitted)
    and an azimuth curvature re-derived from the satellite elevation.

    A WAIT span is fast-forwarded: when the tracker waits, the plant
    sits exactly at its target and the next cycle is not yet due, every
    step up to the due time (or the end of the run) is evaluated in one
    array pass. Nothing in the loop changes over such a span except the
    satellite, the drift and the noise, and the array forms of those
    formulas are bit-equal to the scalar ones, with the noise drawn as one
    batch from the same generator. So the log is the same, byte for byte
    once written, as stepping each of those steps.

    Deterministic for a fixed receiver seed. Raises ValueError before
    starting if the cycle period cannot contain the pattern, and
    PatternInfeasibleError if the initial pattern violates axis limits.
    """
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    min_cycle = pattern_duration(config, plant)
    if config.cycle_period <= min_cycle:
        raise ValueError(
            f"cycle_period {config.cycle_period}s cannot contain the "
            f"displacement pattern ({min_cycle:.1f}s)"
        )
    plan_pattern(
        (plant.true_azimuth, plant.true_elevation),
        config,
        az_limits=plant.az_limits,
        el_limits=plant.el_limits,
    )
    peak = rx.max_db if peak_level_db is None else peak_level_db
    k_el = config.k_el
    tracker = StepTracker(config)
    rng = np.random.default_rng(rx.rng_seed)
    dt = config.sample_interval
    n_steps = round(duration / dt)
    log = TelemetryLog(capacity=n_steps)
    i = 0
    while i < n_steps:
        end = _wait_span_end(tracker, plant, i, dt, n_steps)
        if end > i:
            t = np.arange(i, end) * dt
            sat_az, sat_el = satellite_direction_array(orbit, t)
            field = ParabolaParams(
                k_az=az_coeff_from_elevation_array(k_el, sat_el),
                k_el=k_el,
                peak_az=sat_az,
                peak_el=sat_el,
                peak_level=peak,
            )
            level = measure_array(plant, field, rx, t, rng)
            readback_az, readback_el = read_resolvers(plant)
            log.extend(
                t,
                plant.target_azimuth,
                plant.target_elevation,
                readback_az,
                readback_el,
                level,
                receiver_voltage_array(level, rx),
                TrackerPhase.WAIT.value,
                tracker.cycle_index,
            )
            i = end
            continue
        t = i * dt
        sat_az, sat_el = satellite_direction(orbit, t)
        field = ParabolaParams(
            k_az=az_coeff_from_elevation(k_el, sat_el),
            k_el=k_el,
            peak_az=sat_az,
            peak_el=sat_el,
            peak_level=peak,
        )
        sample = measure(plant, field, rx, t, rng=rng)
        cmd = tracker.step(plant, sample, t)
        if cmd is not None:
            plant = command(plant, cmd[0], cmd[1])
        log.append(
            TelemetryRecord(
                t=t,
                commanded_az=plant.target_azimuth,
                commanded_el=plant.target_elevation,
                readback_az=sample.azimuth,
                readback_el=sample.elevation,
                beacon_db=sample.level,
                receiver_volts=receiver_voltage(sample.level, rx),
                phase=tracker.phase.value,
                cycle_index=tracker.cycle_index,
            )
        )
        plant = tick(plant, dt)
        i += 1
    return log
