"""Timed step-track cycle: acquire, estimate, move, wait.

Each cycle walks a small rectangle around the current pointing while
recording beacon samples, fits the peak from them, slews to the fitted
peak, and then holds still until the next cycle is due. Holding between
cycles limits mechanical wear; the beacon level decays while the
satellite drifts and is restored by the next cycle, which produces the
characteristic sawtooth level trace.

``StepTracker`` takes one sample per tick. ``run_scenario`` drives it in
a plan pass over plain floats, then measures the planned steps in array
passes; see its docstring.
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
    _approach,
    check_target,
    measure,
    quantize_angle,
    receiver_voltage,
)
from .beacon import (
    DEFAULT_K_EL,
    ParabolaParams,
    QuadraticCoefficients,
    az_coeff_from_elevation,
)
from .estimators import (
    DEFAULT_COEFF_FLOOR,
    ESTIMATORS,
    EstimationError,
    PeakEstimate,
    fit_peak,
)
from .orbit import OrbitConfig, satellite_direction
from .telemetry import TelemetryLog

# Unused here since the cycle fits through ``fit_peak`` and ``run_scenario``
# moves the plant in its plan pass, but bound as the layer names through
# which perfbench/tracer.py traces this module.
from .antenna import command, tick  # noqa: F401
from .estimators import (  # noqa: F401
    ls_fit, recover_peak, regression_row, rls_init, rls_recover, rls_update,
)

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
    from the pattern-center elevation at each cycle start. The RLS
    initial gain scale and the curvature floor are the estimators'
    ``DEFAULT_RLS_DELTA`` and ``DEFAULT_COEFF_FLOOR``.
    """

    rect_half_width_az: float = 0.2  # deg
    rect_half_width_el: float = 0.05  # deg
    dwell_time: float = 1.0  # s
    sample_interval: float = 0.02  # s
    cycle_period: float = 600.0  # s
    sampling_mode: str = "continuous"
    estimator: str = "rls"
    forgetting: float = 0.98
    k_el: float = DEFAULT_K_EL

    def __post_init__(self) -> None:
        for name in (
            "rect_half_width_az", "rect_half_width_el", "dwell_time",
            "sample_interval", "cycle_period", "forgetting", "k_el",
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
        if self.k_el >= 0:
            raise ValueError("k_el must be strictly negative")


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
    ``fit_peak`` centred on the pattern center. The RLS fit starts from
    the previous cycle's peak.
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
        if abs(k_az) < DEFAULT_COEFF_FLOOR:
            logger.warning(
                "cycle %d skipped: azimuth curvature %.3g below floor %.3g",
                self.cycle_index,
                k_az,
                DEFAULT_COEFF_FLOOR,
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
                config.forgetting, prior=self.last_estimate,
            )
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
    tracker: StepTracker, at_rest: bool, i: int, dt: float, n_steps: int
) -> int:
    """End (exclusive) of the WAIT span that starts at step ``i``.

    A span is the steps before the next cycle is due while the tracker
    waits with the plant at rest, exactly at its target, so that no step
    moves it. Returns ``i`` or less when step ``i`` starts no span.
    """
    due = tracker.next_cycle_time
    if tracker.phase is not TrackerPhase.WAIT or due is None or not at_rest:
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
    truth_k_el: float | None = None,
) -> TelemetryLog:
    """Run the closed loop for ``duration`` seconds of simulated time.

    The clock advances in ``config.sample_interval`` steps, one telemetry
    record per step. The true beacon surface peaks at the satellite
    direction with level ``peak_level_db`` (the receiver's max_db when
    omitted), elevation curvature ``truth_k_el`` (the tracker's a-priori
    ``config.k_el`` when omitted) and an azimuth curvature re-derived from
    the satellite elevation.

    The run has two passes. The plan pass takes every step in plain
    floats: the true pose advances as ``tick`` would move it, the tracker
    decides from the resolver readbacks and the time, and every command
    gets ``command``'s limit check. The measure pass then evaluates the
    level of the buffered steps in one array pass (satellite direction,
    surface at the true pose, drift, noise drawn as one batch from the
    same generator, floor clamp and volts) and logs them. It runs before
    each ESTIMATE step, the one decision that reads levels, and at the
    end. A WAIT span, where the plant rests at its target until the next
    cycle is due, skips the plan pass and is measured as one block. The
    log is the same, byte for byte once written, as measuring, stepping
    ``StepTracker.step``, ``command`` and ``tick`` one step at a time.

    Deterministic for a fixed receiver seed. Raises ValueError before
    starting if ``duration`` is not finite and non-negative or needs more
    rows than can be allocated, the cycle period cannot contain the
    pattern or ``truth_k_el`` is not negative,
    and PatternInfeasibleError if the first cycle's pattern, centred on
    the resolver readback of the initial pose, violates axis limits.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    k_el = config.k_el if truth_k_el is None else truth_k_el
    if not (math.isfinite(k_el) and k_el < 0):
        raise ValueError(f"truth_k_el must be finite and negative, got {k_el}")
    min_cycle = pattern_duration(config, plant)
    if config.cycle_period <= min_cycle:
        raise ValueError(
            f"cycle_period {config.cycle_period}s cannot contain the "
            f"displacement pattern ({min_cycle:.1f}s)"
        )
    plan_pattern(
        (quantize_angle(plant.true_azimuth, plant.resolver_step),
         quantize_angle(plant.true_elevation, plant.resolver_step)),
        config,
        az_limits=plant.az_limits,
        el_limits=plant.el_limits,
    )
    peak = rx.max_db if peak_level_db is None else peak_level_db
    tracker = StepTracker(config)
    rng = np.random.default_rng(rx.rng_seed)
    dt = config.sample_interval
    n_steps = round(duration / dt)
    try:
        log = TelemetryLog(capacity=n_steps)
    except (ValueError, MemoryError) as exc:
        raise ValueError(
            f"duration {duration} s needs {n_steps:.4g} telemetry rows, "
            f"which cannot be allocated: {exc}"
        ) from None

    def measure_rows(first, count, az, el, cmd_az, cmd_el, rb_az, rb_el, phase, cycle):
        # The measure pass over steps [first, first + count) at true pose
        # (az, el). Each column is an array or one value for every row.
        t = np.arange(first, first + count) * dt
        sat_az, sat_el = satellite_direction(orbit, t)
        field = ParabolaParams(
            k_az=az_coeff_from_elevation(k_el, sat_el),
            k_el=k_el,
            peak_az=sat_az,
            peak_el=sat_el,
            peak_level=peak,
        )
        level = measure(az, el, field, rx, t, rng)
        log.extend(
            t, cmd_az, cmd_el, rb_az, rb_el, level,
            receiver_voltage(level, rx), phase, cycle,
        )

    # Plan-pass rows not yet measured: (az, el, commanded az, commanded el,
    # readback az, readback el, phase, cycle), ending before step i.
    rows: list[tuple] = []

    def flush(i):
        if rows:
            measure_rows(i - len(rows), len(rows), *map(np.array, zip(*rows)))
            rows.clear()

    # The plant's pose as plain floats. The tracker reads only the limits
    # and the resolver step of the ``plant`` it is given, never its pose.
    az, el = plant.true_azimuth, plant.true_elevation
    target_az, target_el = plant.target_azimuth, plant.target_elevation
    az_step, el_step = plant.az_slew_rate * dt, plant.el_slew_rate * dt
    resolver = plant.resolver_step
    i = 0
    while i < n_steps:
        at_rest = az == target_az and el == target_el
        end = _wait_span_end(tracker, at_rest, i, dt, n_steps)
        if end > i:
            flush(i)
            measure_rows(
                i, end - i, az, el, target_az, target_el,
                quantize_angle(az, resolver), quantize_angle(el, resolver),
                TrackerPhase.WAIT.value, tracker.cycle_index,
            )
            i = end
            continue
        if tracker.phase is TrackerPhase.ESTIMATE:
            # The fit reads the levels collected this cycle: measure the
            # steps so far and put each level in place of its step index.
            flush(i)
            db = log.column("beacon_db")
            tracker._samples = [(a, e, float(db[j])) for a, e, j in tracker._samples]
        t = i * dt
        rb_az, rb_el = quantize_angle(az, resolver), quantize_angle(el, resolver)
        # The level is not measured yet, so the sample carries its step
        # index in its place; only ESTIMATE reads levels.
        cmd = tracker.step(plant, BeaconSample(t, rb_az, rb_el, i), t)
        if cmd is not None:
            check_target(plant, cmd[0], cmd[1])
            target_az, target_el = cmd
        rows.append((
            az, el, target_az, target_el, rb_az, rb_el,
            tracker.phase.value, tracker.cycle_index,
        ))
        az = _approach(az, target_az, az_step)
        el = _approach(el, target_el, el_step)
        i += 1
    flush(n_steps)
    return log
