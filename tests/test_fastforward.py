"""Plan and measure passes: ``run_scenario`` must log what plain stepping logs.

``_stepped`` below logs the per-step loop ``oracles.closed_loop``, built
from the per-sample forms, as the reference. The properties compare the two
bit for bit on the configurations the golden digests do not cover, and
check that each physics formula of the package, over an array, equals its
per-sample form bit for bit at each element.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steptrack import tracker
from steptrack.antenna import (
    DEFAULT_RESOLVER_STEP,
    AntennaState,
    ReceiverConfig,
    measure,
    quantize_angle,
    receiver_voltage,
)
from steptrack.beacon import ParabolaParams, az_coeff_from_elevation, beacon_level
from steptrack.orbit import OrbitConfig, satellite_direction
from steptrack.scenario import load_scenario, resolve_scenario_path
from steptrack.telemetry import FIELDS, PHASES, TelemetryLog
from steptrack.tracker import (
    PatternInfeasibleError,
    StepTracker,
    TrackerConfig,
    TrackerPhase,
    pattern_duration,
    plan_pattern,
    run_scenario,
)

import oracles


def _stepped(orbit, plant, rx, config, duration, peak_level_db=None):
    """run_scenario's loop with every step taken one at a time."""
    log = TelemetryLog()
    for step in oracles.closed_loop(orbit, plant, rx, config, duration, peak_level_db):
        sample = step.sample
        log.append(
            sample.t,
            *step.target,
            sample.azimuth,
            sample.elevation,
            sample.level,
            oracles.receiver_voltage(sample.level, rx),
            step.tracker.phase.value,
            step.tracker.cycle_index,
        )
    return log


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(f"u{values.itemsize}")


def _assert_bit_equal(got: np.ndarray, want: list) -> None:
    np.testing.assert_array_equal(_bits(got), _bits(np.array(want, dtype=got.dtype)))


def _assert_same_log(got: TelemetryLog, want: TelemetryLog) -> None:
    assert len(got) == len(want)
    for name in FIELDS:
        np.testing.assert_array_equal(
            _bits(got.column(name)), _bits(want.column(name)), err_msg=name
        )


BASE_CASE = dict(
    az_rate=1.0,
    el_rate=1.0,
    resolver=DEFAULT_RESOLVER_STEP,
    half_az=0.2,
    half_el=0.05,
    az_margin=None,
    el_margin=None,
    axis_mode="azimuth-major",
    orbit_drift=0.0,
    az_amp=3.0,
    el_amp=0.5,
    period=300.0,
    noise=0.0,
    drift_amp=0.0,
    drift_period=120.0,
    estimator="rls",
    sampling="continuous",
    dwell=0.2,
    dt=0.02,
    cycle=6.0,
    duration=30.0,
    seed=0,
    pass_rows=None,
)


def _case(**kw):
    return {**BASE_CASE, **kw}


# A margin is how far an axis limit lies beyond the pattern of the first
# cycle around the start pose; None keeps the default limits. A small margin
# lets the fitted peak fall outside the limits, so the tracker clamps its
# move target, and later patterns become infeasible. A margin smaller than
# the readback's offset from the start pose cuts the first cycle's pattern,
# which is centred on the readback, so the run is rejected before it starts.
margins = st.one_of(st.none(), st.floats(0.0, 0.3))

cases = st.fixed_dictionaries(
    {
        "az_rate": st.floats(0.1, 3.0),
        "el_rate": st.floats(0.1, 3.0),
        "resolver": st.one_of(st.just(DEFAULT_RESOLVER_STEP), st.floats(1e-4, 0.02)),
        "half_az": st.floats(0.02, 0.4),
        "half_el": st.floats(0.01, 0.2),
        "az_margin": margins,
        "el_margin": margins,
        "axis_mode": st.sampled_from(["azimuth-major", "elevation-major"]),
        "orbit_drift": st.one_of(st.just(0.0), st.floats(-500.0, 500.0)),
        "az_amp": st.floats(0.0, 5.0),
        "el_amp": st.floats(0.0, 2.0),
        "period": st.floats(60.0, 900.0),
        "noise": st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
        "drift_amp": st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
        "drift_period": st.floats(30.0, 600.0),
        "estimator": st.sampled_from(["batch-ls", "rls"]),
        "sampling": st.sampled_from(["continuous", "corner-only"]),
        "dwell": st.floats(0.0, 0.4),
        "dt": st.sampled_from([0.02, 0.03, 0.05]),
        "cycle": st.floats(3.0, 12.0),
        "duration": st.floats(0.0, 30.0),
        "seed": st.integers(0, 2**32 - 1),
        # The most rows a measure pass holds; None keeps run_scenario's.
        "pass_rows": st.sampled_from([None, 1, 7, 64]),
    }
)


@settings(max_examples=30)
@given(case=cases)
@example(case=_case(axis_mode="elevation-major"))
@example(case=_case(axis_mode="elevation-major", orbit_drift=400.0))
@example(case=_case(noise=0.3, drift_amp=0.8, drift_period=40.0, seed=7))
@example(case=_case(estimator="batch-ls", sampling="corner-only", noise=0.1))
@example(case=_case(cycle=7.33, noise=0.2))
@example(case=_case(duration=16.5, noise=0.2))  # ends inside a WAIT span
@example(case=_case(duration=6.5, noise=0.2))  # ends inside ACQUIRE
@example(case=_case(duration=7.4, noise=0.2))  # ends inside MOVE
# The tracker is called only where it decides; the steps between are a
# quiet run. A 0.02 deg resolver step puts the readback on a waypoint 0.01
# deg away on the first step of its leg: a quiet run of no steps.
@example(case=_case(resolver=0.02, half_el=0.01))
# Corner-only sampling without a dwell: one decision and one sample a corner.
@example(case=_case(sampling="corner-only", dwell=0.0))
# Ends inside the quiet run of the second cycle's MOVE.
@example(case=_case(duration=13.4, noise=0.2))
# Each WAIT span at rest and the next cycle's ACQUIRE rows go through one
# measure pass, whose noise is drawn as one batch in row order.
@example(case=_case(noise=0.2, seed=3))
# Passes of a few rows fall between the samples of each cycle and its fit.
@example(case=_case(noise=0.2, drift_amp=0.5, pass_rows=7))
# Slewing 2 mdeg a step, the readback arrives before the plant does, so
# WAIT begins while the plant still settles within one resolver step.
@example(case=_case(az_rate=0.1, el_rate=0.1, cycle=16.0, noise=0.2))
# Limits 0.01 deg beyond the first pattern: the move target is clamped.
@example(case=_case(az_margin=0.01, el_margin=0.01, noise=0.2))
# The readback's 1.8 mdeg elevation offset puts the first pattern's top
# corners beyond a limit set at the start pose's pattern: rejected.
@example(case=_case(el_margin=0.0))
def test_run_scenario_matches_stepping(case):
    orbit = OrbitConfig(
        center_azimuth=180.0,
        center_elevation=60.0,
        azimuth_amplitude=case["az_amp"],
        elevation_amplitude=case["el_amp"],
        period=case["period"],
        axis_mode=case["axis_mode"],
        drift_deg_per_day=case["orbit_drift"],
    )
    limits = {
        f"{axis}_limits": (centre - half - margin, centre + half + margin)
        for axis, centre, half, margin in (
            ("az", 180.0, case["half_az"], case["az_margin"]),
            ("el", 60.0, case["half_el"], case["el_margin"]),
        )
        if margin is not None
    }
    plant = AntennaState(
        180.0, 60.0,
        az_slew_rate=case["az_rate"],
        el_slew_rate=case["el_rate"],
        resolver_step=case["resolver"],
        **limits,
    )
    rx = ReceiverConfig(
        noise_sigma=case["noise"],
        drift_amplitude=case["drift_amp"],
        drift_period=case["drift_period"],
        rng_seed=case["seed"],
    )
    config = TrackerConfig(
        sample_interval=case["dt"],
        cycle_period=case["cycle"],
        sampling_mode=case["sampling"],
        dwell_time=case["dwell"],
        estimator=case["estimator"],
        rect_half_width_az=case["half_az"],
        rect_half_width_el=case["half_el"],
    )
    min_cycle = pattern_duration(config, plant)
    if config.cycle_period <= min_cycle + 0.5:
        config = dataclasses.replace(config, cycle_period=min_cycle + 2.0)
    readback = (quantize_angle(180.0, plant.resolver_step),
                quantize_angle(60.0, plant.resolver_step))
    try:
        plan_pattern(readback, config, plant.az_limits, plant.el_limits)
    except PatternInfeasibleError:
        with pytest.raises(PatternInfeasibleError):
            run_scenario(orbit, plant, rx, config, case["duration"])
        return
    want = _stepped(orbit, plant, rx, config, case["duration"])
    pass_rows = case["pass_rows"] or tracker._PASS_ROWS
    with mock.patch.object(tracker, "_PASS_ROWS", pass_rows):
        got = run_scenario(orbit, plant, rx, config, case["duration"])
    _assert_same_log(got, want)


def _span_rows(orbit, plant, rx, config, duration):
    """The rows of WAIT spans, found by stepping: rows where the tracker
    waits for a cycle not yet due and the plant rests at its target."""
    rows, resting = [], None
    for j, step in enumerate(oracles.closed_loop(orbit, plant, rx, config, duration)):
        if resting is not None and j * config.sample_interval < resting:
            rows.append(j)
        pose = step.plant.true_azimuth, step.plant.true_elevation
        at_rest = step.tracker.phase is TrackerPhase.WAIT and pose == step.target
        resting = step.tracker.next_cycle_time if at_rest else None
    return rows


# The 1.3 s cycle falls due before the plant comes to rest after the move to
# the peak: the plant never rests, so no WAIT span ends a pass.
@pytest.mark.parametrize("cycle", [6.0, 1e200, 1.3])
def test_long_spans_are_measured_in_bounded_passes(monkeypatch, cycle):
    # With passes capped at 64 rows, every pass holds at most 64 rows: the
    # WAIT spans (about 230 rows each, or all the run after the first cycle
    # when no other falls due), and the moving rows of a run without spans.
    # A pass falls inside a cycle's ACQUIRE, between samples and their fit.
    monkeypatch.setattr("steptrack.tracker._PASS_ROWS", 64)
    passes = []

    def recorded(level, rx):
        passes.append(len(level))
        return receiver_voltage(level, rx)

    monkeypatch.setattr("steptrack.tracker.receiver_voltage", recorded)
    orbit = OrbitConfig(180.0, 60.0, 3.0, 0.5, 300.0)
    plant = AntennaState(180.0, 60.0)
    rx = ReceiverConfig(noise_sigma=0.2, drift_amplitude=0.5, drift_period=40.0, rng_seed=11)
    config = TrackerConfig(cycle_period=cycle)
    assert bool(_span_rows(orbit, plant, rx, config, 20.0)) == (cycle != 1.3)
    want = _stepped(orbit, plant, rx, config, 20.0)
    got = run_scenario(orbit, plant, rx, config, 20.0)
    _assert_same_log(got, want)
    assert max(passes) <= 64 and sum(passes) == len(got)
    # A pass ends inside an ACQUIRE but for the one cycle of 1e200 s, whose
    # ACQUIRE (about 60 rows from row 0) the first pass holds whole.
    phase, cycle_index = got.column("phase"), got.column("cycle_index")
    acquire = PHASES.index("acquire")
    split = any(
        phase[b - 1] == phase[b] == acquire and cycle_index[b - 1] == cycle_index[b]
        for b in np.cumsum(passes)[:-1].tolist()
    )
    assert split == (cycle < 20.0)


def _counting(calls, name, fn):
    """``fn``, adding its calls up in ``calls[name]``."""
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_tracker_is_called_only_where_it_decides(monkeypatch):
    # A cycle has 8 decisions: it falls due, 5 waypoint arrivals, ESTIMATE
    # and the arrival at the fitted peak. The satellite's direction is taken
    # for the rows planned before each fit and for the rest of each pass,
    # one here.
    calls = {}
    monkeypatch.setattr(StepTracker, "step", _counting(calls, "step", StepTracker.step))
    monkeypatch.setattr(
        "steptrack.tracker.satellite_direction",
        _counting(calls, "satellite_direction", satellite_direction),
    )
    sc = load_scenario(resolve_scenario_path("desk_figure8"))
    log = run_scenario(
        sc.orbit, sc.antenna, sc.receiver, sc.tracker, 60.0,
        peak_level_db=sc.peak_level_db, truth_k_el=sc.truth_k_el,
    )
    cycles = int(log.column("cycle_index").max()) + 1
    assert cycles == 6 and len(log) == 3000
    assert calls["step"] <= 10 * cycles, calls
    assert calls["satellite_direction"] <= cycles + 1, calls


def test_rapid_cycles_are_logged_a_pass_at_a_time(monkeypatch):
    # A 1.5 s cycle, as in the benchmark's rapid_cycle, fits about 75 rows:
    # its rows get their volts and go into the log a pass of _PASS_ROWS rows
    # at a time, not a cycle or a block of planned steps at a time.
    calls = {}
    monkeypatch.setattr(TelemetryLog, "extend", _counting(calls, "extend", TelemetryLog.extend))
    monkeypatch.setattr(
        "steptrack.tracker.receiver_voltage",
        _counting(calls, "receiver_voltage", receiver_voltage),
    )
    sc = load_scenario(resolve_scenario_path("desk_figure8"))
    rx = dataclasses.replace(
        sc.receiver, noise_sigma=0.2, drift_amplitude=0.5, drift_period=300.0
    )
    config = dataclasses.replace(sc.tracker, cycle_period=1.5)
    log = run_scenario(
        sc.orbit, sc.antenna, rx, config, 180.0,
        peak_level_db=sc.peak_level_db, truth_k_el=sc.truth_k_el,
    )
    cycles = int(log.column("cycle_index").max()) + 1
    passes = -(-len(log) // tracker._PASS_ROWS)
    assert cycles > 100 and passes < 5, (cycles, passes)
    assert calls["receiver_voltage"] == passes, calls
    assert calls["extend"] <= passes, calls


# -- the physics over arrays, against the per-sample forms -----------------------

finite = dict(allow_nan=False, allow_infinity=False)


@given(
    axis_mode=st.sampled_from(["azimuth-major", "elevation-major"]),
    az_amp=st.floats(0.0, 20.0),
    el_amp=st.floats(0.0, 5.0),
    period=st.floats(1.0, 1e6),
    phase=st.floats(-10.0, 10.0),
    drift=st.floats(-1e3, 1e3),
    t0=st.floats(0.0, 1e6),
    dt=st.floats(1e-3, 10.0),
)
def test_satellite_direction_array_is_bit_equal(
    axis_mode, az_amp, el_amp, period, phase, drift, t0, dt
):
    orbit = OrbitConfig(180.0, 45.0, az_amp, el_amp, period, phase, axis_mode, drift)
    t = t0 + np.arange(64) * dt
    az, el = satellite_direction(orbit, t)
    want = [oracles.satellite_direction(orbit, ti) for ti in t.tolist()]
    _assert_bit_equal(az, [a for a, _ in want])
    _assert_bit_equal(el, [e for _, e in want])


@given(
    k_el=st.floats(-100.0, -1e-3),
    elevation=st.lists(st.floats(0.0, 90.0), min_size=1, max_size=64),
)
def test_az_coeff_array_is_bit_equal(k_el, elevation):
    got = az_coeff_from_elevation(k_el, np.array(elevation))
    want = [oracles.az_coeff_from_elevation(k_el, e) for e in elevation]
    _assert_bit_equal(got, want)
    # A float gives the same bits as a one-element array.
    _assert_bit_equal(np.array([az_coeff_from_elevation(k_el, e) for e in elevation]), want)


def test_az_coeff_array_domain_errors():
    with pytest.raises(ValueError, match="got 90.5"):
        az_coeff_from_elevation(-11.4, np.array([10.0, 90.5]))
    with pytest.raises(ValueError):
        az_coeff_from_elevation(-11.4, np.array([math.nan]))
    with pytest.raises(ValueError):
        az_coeff_from_elevation(1.0, np.array([10.0]))


def test_parabola_params_rejects_array_with_zero_curvature():
    with pytest.raises(ValueError):
        ParabolaParams(np.array([-1.0, 0.0]), -11.4, np.zeros(2), np.zeros(2), 6.0)


surfaces = st.lists(
    st.tuples(
        st.floats(-50.0, -1e-3), st.floats(170.0, 190.0), st.floats(50.0, 80.0)
    ),
    min_size=1,
    max_size=64,
)


def _surface(rows, k_el=-11.4, peak_level=6.0):
    k_az, peak_az, peak_el = (np.array(c) for c in zip(*rows))
    return ParabolaParams(k_az, k_el, peak_az, peak_el, peak_level)


@given(rows=surfaces, az=st.floats(170.0, 190.0), el=st.floats(50.0, 80.0))
def test_beacon_level_on_array_surface_is_bit_equal(rows, az, el):
    got = beacon_level(_surface(rows), az, el)
    want = [
        beacon_level(ParabolaParams(k, -11.4, pa, pe, 6.0), az, el) for k, pa, pe in rows
    ]
    _assert_bit_equal(got, want)


@given(
    rows=surfaces,
    az=st.floats(170.0, 190.0),
    el=st.floats(50.0, 80.0),
    noise=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
    drift_amp=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    drift_period=st.floats(1.0, 1e5),
    t0=st.floats(0.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
)
def test_measure_array_is_bit_equal(rows, az, el, noise, drift_amp, drift_period, t0, seed):
    plant = AntennaState(az, el)
    rx = ReceiverConfig(
        noise_sigma=noise, drift_amplitude=drift_amp, drift_period=drift_period
    )
    t = t0 + np.arange(len(rows)) * 0.02
    got = measure(az, el, _surface(rows), rx, t, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = [
        oracles.measure(plant, ParabolaParams(k, -11.4, pa, pe, 6.0), rx, ti, rng=rng).level
        for (k, pa, pe), ti in zip(rows, t.tolist())
    ]
    _assert_bit_equal(got, want)


@given(
    levels=st.lists(st.floats(-60.0, 60.0, **finite), min_size=1, max_size=64),
    floor=st.floats(-40.0, 0.0),
    span=st.floats(1e-3, 60.0),
)
def test_receiver_voltage_array_is_bit_equal(levels, floor, span):
    rx = ReceiverConfig(floor_db=floor, max_db=floor + span)
    got = receiver_voltage(np.array(levels), rx)
    _assert_bit_equal(got, [oracles.receiver_voltage(v, rx) for v in levels])
