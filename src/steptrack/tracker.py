"""Timed step-track cycle: acquire, estimate, move, wait.

Each cycle walks a small rectangle around the current pointing while
recording beacon samples, fits the peak from them, slews to the fitted
peak, and then holds still until the next cycle is due. Holding between
cycles limits mechanical wear; the beacon level decays while the
satellite drifts and is restored by the next cycle, which produces the
characteristic sawtooth level trace.

``StepTracker.step`` decides on a sample's time and readbacks, never its
level, and ``estimate`` fits the cycle's samples, which its caller keeps.
``run_scenario`` plans the run in plain floats, calling the tracker only
where it decides (``awaiting``), and measures the planned steps in array
passes of at most ``_PASS_ROWS`` rows, each logged as one block; see its
docstring.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import check_fields
from .antenna import (
    AntennaState,
    ReceiverConfig,
    _approach,
    command,
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
    DEFAULT_RLS_DELTA,
    ESTIMATORS,
    EstimationError,
    PeakEstimate,
    fit_peak,
)
from .orbit import OrbitConfig, satellite_direction
from .telemetry import PHASES, TelemetryLog

# Unused here since the cycle fits through ``fit_peak`` and ``run_scenario``
# moves the plant in its plan pass, but bound as the layer names through
# which perfbench/tracer.py traces this module.
from .antenna import tick  # noqa: F401
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


# Each phase's code in the telemetry log.
_PHASE_CODES = {phase: PHASES.index(phase.value) for phase in TrackerPhase}
# The most rows run_scenario measures and logs in one pass, whatever phase
# planned them: the pass buffer and a pass's temporaries take memory in
# proportion, and each pass costs about 0.1 ms besides its rows. On a
# 2-core x86-64 host, 4096 kept each benchmark workload's peak RSS within
# that of logging once a cycle; 2048 and 8192 each raised the 1.5 s
# cycle's by 0.1-0.2 MB.
_PASS_ROWS = 1 << 12
# The natural log of the largest float.
_LOG_MAX = math.log(np.finfo(np.float64).max)


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
        check_fields(
            self,
            positive=("rect_half_width_az", "rect_half_width_el", "sample_interval",
                      "cycle_period"),
            non_negative=("dwell_time",),
            negative=("k_el",),
            choices={"sampling_mode": SAMPLING_MODES, "estimator": ESTIMATORS},
        )
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {self.forgetting}")


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


class CycleFit(NamedTuple):
    """The ESTIMATE decision: the command, and the fitted peak and its
    residual RMS in dB; after a failed fit, None for both and the reason."""

    command: tuple[float, float]
    peak: PeakEstimate | None = None
    residual_rms: float | None = None
    reason: str | None = None


class StepTracker:
    """Drives the four-phase tracking cycle.

    ``step`` decides WAIT, ACQUIRE and MOVE from a sample's time and
    readbacks, may return an (azimuth, elevation) command, and sets
    ``collected`` when the sample belongs to the cycle's fit. The caller
    keeps those samples and, at ESTIMATE, hands their readbacks and levels
    to ``estimate`` in place of a step. The limits and the resolver step
    (the arrival tolerance) come from ``plant`` once. Phase order is always
    acquire -> estimate -> move -> wait; a failed cycle (pattern
    infeasible, too few samples, degenerate, rank-deficient or non-finite
    fit) logs the reason, re-commands the pattern center and falls through
    to wait. Between its decisions ``step`` returns None and changes no
    state; ``awaiting`` tells what the next decision waits for, so a
    caller may skip the calls in between and collect in their place.
    """

    def __init__(self, config: TrackerConfig, plant: AntennaState):
        self.config = config
        self._limits = plant.az_limits, plant.el_limits
        self._tol = plant.resolver_step
        self.phase = TrackerPhase.WAIT
        self.cycle_index = -1
        self.pattern_center: tuple[float, float] | None = None
        self.last_estimate: PeakEstimate | None = None
        self.next_cycle_time = -math.inf  # the first sample begins a cycle
        self.collected = False
        self._waypoints: list[tuple[float, float]] = []
        self._waypoint_idx = 0
        self._dwell_until: float | None = None
        self._move_target: tuple[float, float] | None = None
        self._k: QuadraticCoefficients | None = None

    def step(self, t: float, azimuth: float, elevation: float) -> tuple[float, float] | None:
        """Decide on the sample at time ``t`` with these readbacks."""
        self.collected = False
        if self.phase is TrackerPhase.WAIT:
            if t >= self.next_cycle_time:
                return self._begin_cycle(t, azimuth, elevation)
            return None
        if self.phase is TrackerPhase.ACQUIRE:
            return self._acquire(t, azimuth, elevation)
        if self.phase is TrackerPhase.ESTIMATE:
            raise RuntimeError("the ESTIMATE phase decides through estimate, not step")
        if _arrived(azimuth, elevation, self._move_target, self._tol):
            self.phase = TrackerPhase.WAIT
        return None

    def estimate(self, az: np.ndarray, el: np.ndarray, level: np.ndarray) -> CycleFit:
        """Fit the cycle's samples by ``fit_peak``, centred on the pattern
        center, and move to the peak. RLS starts from the last peak."""
        config = self.config
        self.phase = TrackerPhase.WAIT
        try:
            peak, rms = fit_peak(
                az, el, level, self.pattern_center, self._k, config.estimator,
                config.forgetting, prior=self.last_estimate,
            )
        except EstimationError as exc:
            fit = CycleFit(self._clamp(self.pattern_center), reason=str(exc))
            logger.warning("cycle %d aborted: %s", self.cycle_index, fit.reason)
            return fit
        self.last_estimate = peak
        self._move_target = self._clamp((peak.azimuth, peak.elevation))
        self.phase = TrackerPhase.MOVE
        return CycleFit(self._move_target, peak, rms)

    def awaiting(self) -> tuple[float, tuple[float, float] | None, bool]:
        """What the next deciding sample waits for: ``(due, goal, collecting)``.

        Until the first sample at or after time ``due``, or whose readbacks
        have arrived at ``goal`` (``_arrived``), ``step`` decides nothing:
        it returns None, changes no state and sets ``collected`` to
        ``collecting``. ``due`` is -inf when the next sample decides
        whatever it holds.
        """
        if self.phase is TrackerPhase.WAIT:
            return self.next_cycle_time, None, False
        if self.phase is TrackerPhase.ACQUIRE and self._dwell_until is None:
            goal = self._waypoints[self._waypoint_idx]
            return math.inf, goal, self.config.sampling_mode == "continuous"
        if self.phase is TrackerPhase.MOVE:
            return math.inf, self._move_target, False
        return -math.inf, None, False

    def _begin_cycle(self, t: float, azimuth: float, elevation: float) -> tuple[float, float] | None:
        self.cycle_index += 1
        self.next_cycle_time = t + self.config.cycle_period
        self.pattern_center = (azimuth, elevation)
        k_az = az_coeff_from_elevation(self.config.k_el, elevation)
        if abs(k_az) < DEFAULT_COEFF_FLOOR:
            logger.warning(
                "cycle %d skipped: azimuth curvature %.3g below floor %.3g",
                self.cycle_index, k_az, DEFAULT_COEFF_FLOOR,
            )
            return None
        self._k = QuadraticCoefficients(k_az=k_az, k_el=self.config.k_el)
        try:
            self._waypoints = plan_pattern(self.pattern_center, self.config, *self._limits)
        except PatternInfeasibleError as exc:
            logger.warning("cycle %d skipped: %s", self.cycle_index, exc)
            return None
        self._waypoint_idx = 0
        self._dwell_until = None
        self.phase = TrackerPhase.ACQUIRE
        self.collected = self.config.sampling_mode == "continuous"
        return self._waypoints[0]

    def _acquire(self, t: float, azimuth: float, elevation: float) -> tuple[float, float] | None:
        continuous = self.config.sampling_mode == "continuous"
        self.collected = continuous
        if not _arrived(azimuth, elevation, self._waypoints[self._waypoint_idx], self._tol):
            return None
        if not continuous and self._waypoint_idx < 4:  # at a corner
            if self._dwell_until is None:
                self._dwell_until = t + self.config.dwell_time
            self.collected = True
            if t < self._dwell_until:
                return None
        self._dwell_until = None
        self._waypoint_idx += 1
        if self._waypoint_idx < len(self._waypoints):
            return self._waypoints[self._waypoint_idx]
        self.phase = TrackerPhase.ESTIMATE
        return None

    def _clamp(self, target: tuple[float, float]) -> tuple[float, float]:
        return tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(target, self._limits))


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


def _arrived(
    azimuth: float, elevation: float, target: tuple[float, float], tol: float
) -> bool:
    """Whether both readbacks lie within ``tol`` of the target."""
    return abs(azimuth - target[0]) <= tol and abs(elevation - target[1]) <= tol


def _first_step_at(due: float, dt: float, n_steps: int) -> int:
    """The first step j with ``j * dt >= due``, or ``n_steps`` if no step of
    the run is."""
    if due > (n_steps - 1) * dt:
        return n_steps
    if not due > 0:
        return 0
    # The quotient may round either way.
    end = math.ceil(due / dt)
    while end > 0 and (end - 1) * dt >= due:
        end -= 1
    while end * dt < due:
        end += 1
    return end


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

    The loop plans the run: it moves the true pose in plain floats as
    ``tick`` would, reads it back with ``quantize_angle`` and calls the
    tracker only on the steps where it decides: ``step`` when a cycle
    falls due or the readbacks arrive at the waypoint or move target it
    waits for (``StepTracker.awaiting``), and ``estimate`` at ESTIMATE.
    Every command gets ``command``'s limit check. The loop keeps the
    cycle's fit samples, a readback pair and a step index each: the steps
    ``step`` marks ``collected`` and the quiet steps of continuous
    ACQUIRE, on which the tracker would only return None. A WAIT span,
    where the plant rests at its target until the next cycle is due, is
    not planned step by step at all.

    The planned rows gather in a pass buffer of ``_PASS_ROWS`` rows,
    whatever phase planned them. At ESTIMATE the rows planned since the
    last measure get their level (satellite direction, surface at the
    true pose, drift, noise drawn as one batch from the same generator in
    row order, floor clamp), and the fit reads its samples' levels by
    their step indices, from the buffer or, when a pass fell among them,
    from the log. A full buffer, and the last one, is measured likewise,
    gets its volts and goes into the log as one block. The log is the
    same, byte for byte once written, as measuring, deciding, ``command``
    and ``tick`` one step at a time.

    Deterministic for a fixed receiver seed. Raises ValueError before
    starting if ``duration`` is not finite and non-negative or needs more
    rows than can be allocated, the cycle period cannot contain the
    pattern, ``truth_k_el`` is not negative, the peak level is not finite
    or lies below ``rx.floor_db``, or the RLS forgetting factor would
    overflow the gain matrix within one pattern's samples,
    and PatternInfeasibleError if the first cycle's pattern, centred on
    the resolver readback of the initial pose, violates axis limits.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    k_el = config.k_el if truth_k_el is None else truth_k_el
    if not (math.isfinite(k_el) and k_el < 0):
        raise ValueError(f"truth_k_el must be finite and negative, got {k_el}")
    peak = rx.max_db if peak_level_db is None else peak_level_db
    if not (math.isfinite(peak) and peak >= rx.floor_db):
        raise ValueError(
            f"peak_level_db must be finite and at least floor_db {rx.floor_db}, got {peak}"
        )
    min_cycle = pattern_duration(config, plant)
    if config.cycle_period <= min_cycle:
        raise ValueError(
            f"cycle_period {config.cycle_period}s cannot contain the "
            f"displacement pattern ({min_cycle:.4g}s)"
        )
    # RLS divides its gain matrix, DEFAULT_RLS_DELTA at the start, by the
    # forgetting factor once a sample: it must stay finite over a pattern.
    samples = min_cycle / config.sample_interval
    if config.estimator == "rls" and (
        math.log(DEFAULT_RLS_DELTA) - samples * math.log(config.forgetting) > _LOG_MAX
    ):
        raise ValueError(
            f"forgetting {config.forgetting} overflows the RLS gain within one "
            f"pattern of {samples:.4g} samples"
        )
    plan_pattern(
        (quantize_angle(plant.true_azimuth, plant.resolver_step),
         quantize_angle(plant.true_elevation, plant.resolver_step)),
        config,
        az_limits=plant.az_limits,
        el_limits=plant.el_limits,
    )
    tracker = StepTracker(config, plant)
    rng = np.random.default_rng(rx.rng_seed)
    dt = config.sample_interval
    try:
        n_steps = round(duration / dt)  # inf for a subnormal dt: OverflowError
        log = TelemetryLog(capacity=n_steps)
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ValueError(
            f"duration {duration} s needs {duration / dt:.4g} telemetry rows, "
            f"which cannot be allocated: {exc}"
        ) from None

    # The rows planned but not logged, rows len(log) to i, at most a pass
    # of them: in ``pending`` (true pose, readbacks, commands, phase code,
    # cycle and level, a row of floats each) up to row len(log) + filled,
    # the first ``measured`` with their level, then the planned steps not
    # yet sealed into it: pose and readbacks, four floats a step, and
    # (steps, commanded az, commanded el, phase code, cycle) of each
    # tracker call and the quiet run after it.
    pending = np.empty((9, min(_PASS_ROWS, n_steps)))
    filled = measured = 0
    poses: list[float] = []
    runs: list[tuple] = []

    def seal():
        nonlocal filled
        if runs:
            rows = slice(filled, filled + len(poses) // 4)
            pending[:4, rows] = np.array(poses).reshape(-1, 4).T
            steps = np.array(runs).T
            pending[4:8, rows] = steps[1:].repeat(steps[0].astype(np.intp), axis=1)
            filled = rows.stop
            poses.clear()
            runs.clear()

    def measure_planned():
        # The level of every planned row, its noise drawn as one batch from
        # the generator in row order.
        nonlocal measured
        seal()
        if measured < filled:
            rows = slice(measured, filled)
            t = np.arange(len(log) + measured, len(log) + filled) * dt
            sat_az, sat_el = satellite_direction(orbit, t)
            field = ParabolaParams(
                k_az=az_coeff_from_elevation(k_el, sat_el),
                k_el=k_el,
                peak_az=sat_az,
                peak_el=sat_el,
                peak_level=peak,
            )
            pending[8, rows] = measure(pending[0, rows], pending[1, rows], field, rx, t, rng)
            measured = filled

    def log_pass():
        # Measure the rest of the pass and log it as one block.
        nonlocal filled, measured
        measure_planned()
        _, _, rb_az, rb_el, cmd_az, cmd_el, phase, cycle, level = pending[:, :filled]
        log.extend(
            np.arange(len(log), len(log) + filled) * dt, cmd_az, cmd_el, rb_az, rb_el,
            level, receiver_voltage(level, rx), phase.astype(np.int8), cycle.astype(np.int64),
        )
        filled = measured = 0

    # The plant's pose and slew target as plain floats, at rest at the start.
    az, el = plant.true_azimuth, plant.true_elevation
    target_az, target_el = az, el
    az_step, el_step = plant.az_slew_rate * dt, plant.el_slew_rate * dt
    resolver = plant.resolver_step  # also the tracker's arrival tolerance
    # The cycle's fit samples: readbacks and the step whose level goes with them.
    samples: list[tuple[float, float, int]] = []
    collect = samples.append
    i = 0
    while i < n_steps:
        start = i
        rb_az, rb_el = quantize_angle(az, resolver), quantize_angle(el, resolver)
        if tracker.phase is TrackerPhase.ESTIMATE:
            # The fit reads the levels of the samples: measure the steps so far.
            measure_planned()
            fit_az, fit_el, steps = np.array(samples).reshape(-1, 3).T
            # A pass may have logged the cycle's first samples.
            first = min(len(log), int(steps.min(initial=len(log))))
            logged = log.column("beacon_db", slice(first, len(log)))
            fit_db = np.concatenate((logged, pending[8, :filled]))[steps.astype(np.intp) - first]
            cmd = tracker.estimate(fit_az, fit_el, fit_db).command
            samples.clear()
        else:
            cmd = tracker.step(i * dt, rb_az, rb_el)
            if tracker.collected:
                collect((rb_az, rb_el, i))
        if cmd is not None:
            command(plant, cmd[0], cmd[1])
            target_az, target_el = cmd
        # Then the quiet run up to the next deciding step, or in WAIT up to
        # the step where the plant comes to rest, within the pass.
        due, goal, collecting = tracker.awaiting()
        stop = min(_first_step_at(due, dt, n_steps), len(log) + _PASS_ROWS)
        while True:
            poses += (az, el, rb_az, rb_el)
            az = _approach(az, target_az, az_step)
            el = _approach(el, target_el, el_step)
            i += 1
            if i >= stop:
                break
            rb_az, rb_el = quantize_angle(az, resolver), quantize_angle(el, resolver)
            if goal is None:
                if az == target_az and el == target_el:
                    break
            elif _arrived(rb_az, rb_el, goal, resolver):
                break
            if collecting:
                collect((rb_az, rb_el, i))
        phase = tracker.phase
        code, cycle = _PHASE_CODES[phase], tracker.cycle_index
        runs.append((i - start, target_az, target_el, code, cycle))
        if i == len(log) + _PASS_ROWS:
            log_pass()
        if phase is TrackerPhase.WAIT and az == target_az and el == target_el:
            # A WAIT span: no step moves the plant before the next cycle.
            end = _first_step_at(tracker.next_cycle_time, dt, n_steps)
            span = (
                az, el, quantize_angle(az, resolver), quantize_angle(el, resolver),
                target_az, target_el, code, cycle,
            )
            while i < end:
                seal()
                rows = min(end, len(log) + _PASS_ROWS) - i
                pending[:8, filled : filled + rows] = np.array(span)[:, None]
                filled += rows
                i += rows
                if i == len(log) + _PASS_ROWS:
                    log_pass()
    if i > len(log):
        log_pass()
    return log
