"""Plan and measure passes: ``run_scenario`` must log what plain stepping logs.

``_stepped`` below is the per-step loop, built from the per-sample forms
in ``oracles``, kept here as the reference. The properties compare the two
bit for bit on the configurations the golden digests do not cover, and
check that each physics formula of the package, over an array, equals its
per-sample form bit for bit at each element.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steptrack.antenna import (
    DEFAULT_RESOLVER_STEP,
    AntennaState,
    ReceiverConfig,
    command,
    measure,
    quantize_angle,
    receiver_voltage,
    tick,
)
from steptrack.beacon import ParabolaParams, az_coeff_from_elevation, beacon_level
from steptrack.orbit import OrbitConfig, satellite_direction
from steptrack.telemetry import FIELDS, TelemetryLog
from steptrack.tracker import (
    PatternInfeasibleError,
    StepTracker,
    TrackerConfig,
    pattern_duration,
    plan_pattern,
    run_scenario,
)

import oracles


def _stepped(orbit, plant, rx, config, duration, peak_level_db=None):
    """run_scenario's loop with every step taken one at a time."""
    peak = rx.max_db if peak_level_db is None else peak_level_db
    tracker = StepTracker(config)
    log = TelemetryLog()
    rng = np.random.default_rng(rx.rng_seed)
    dt = config.sample_interval
    for i in range(round(duration / dt)):
        t = i * dt
        sat_az, sat_el = oracles.satellite_direction(orbit, t)
        field = ParabolaParams(
            k_az=oracles.az_coeff_from_elevation(config.k_el, sat_el),
            k_el=config.k_el,
            peak_az=sat_az,
            peak_el=sat_el,
            peak_level=peak,
        )
        sample = oracles.measure(plant, field, rx, t, rng=rng)
        cmd = tracker.step(plant, sample, t)
        if cmd is not None:
            plant = command(plant, cmd[0], cmd[1])
        log.append(
            t,
            plant.target_azimuth,
            plant.target_elevation,
            sample.azimuth,
            sample.elevation,
            sample.level,
            oracles.receiver_voltage(sample.level, rx),
            tracker.phase.value,
            tracker.cycle_index,
        )
        plant = tick(plant, dt)
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
        180.0, 60.0, 180.0, 60.0,
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
    got = run_scenario(orbit, plant, rx, config, case["duration"])
    _assert_same_log(got, want)


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
    plant = AntennaState(az, el, az, el)
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
