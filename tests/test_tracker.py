"""Tracking-cycle tests: pattern planning, the four phases, closed-loop runs."""

import itertools
import logging

import numpy as np
import pytest

import steptrack as st
from steptrack.antenna import AxisLimitError, command, tick
from steptrack.beacon import ParabolaParams
from steptrack.telemetry import FIELDS, PHASES
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


def _closed_loop(orbit, plant, rx, config, duration, peak_level=6.0):
    """Manual copy of the run_scenario stepping so the test can watch the
    true (unquantized) plant state."""
    tracker = StepTracker(config)
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
            peak_level=peak_level,
        )
        sample = oracles.measure(plant, field, rx, t, rng=rng)
        cmd = tracker.step(plant, sample, t)
        if cmd is not None:
            plant = command(plant, *cmd)
        plant = tick(plant, dt)
    return tracker, plant


# -- pattern planning --------------------------------------------------------

def test_pattern_corners_and_circuit_order():
    config = TrackerConfig(rect_half_width_az=0.2, rect_half_width_el=0.05)
    circuit = plan_pattern((10.0, 70.0), config)
    assert circuit == [
        (9.8, 69.95),
        (10.2, 69.95),
        (10.2, 70.05),
        (9.8, 70.05),
        (9.8, 69.95),
    ]


def test_pattern_square_when_half_widths_equal():
    config = TrackerConfig(rect_half_width_az=0.1, rect_half_width_el=0.1)
    circuit = plan_pattern((0.0, 45.0), config)
    azs = sorted({az for az, _ in circuit})
    els = sorted({el for _, el in circuit})
    assert azs == [-0.1, 0.1] and els == [44.9, 45.1]


def test_pattern_infeasible_at_elevation_limit():
    config = TrackerConfig()
    with pytest.raises(PatternInfeasibleError):
        plan_pattern((10.0, 89.99), config, el_limits=(5.0, 90.0))


def test_pattern_starts_at_lower_left_corner():
    # At this centre the four corners' distances differ by rounding, and
    # the nearest one was the lower-right.
    circuit = plan_pattern((8.0, 45.0), TrackerConfig())
    assert circuit[0] == circuit[-1] == (8.0 - 0.2, 45.0 - 0.05)
    assert len(circuit) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(rect_half_width_az=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(dwell_time=-1.0)
    with pytest.raises(ValueError):
        TrackerConfig(sampling_mode="spiral")
    with pytest.raises(ValueError):
        TrackerConfig(estimator="kalman")
    with pytest.raises(ValueError):
        TrackerConfig(forgetting=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(k_el=1.0)


@pytest.mark.parametrize(
    "field",
    ["rect_half_width_az", "rect_half_width_el", "dwell_time", "sample_interval",
     "cycle_period", "forgetting", "k_el"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        TrackerConfig(**{field: value})


# -- one full cycle, static satellite ------------------------------------------

@pytest.mark.parametrize("estimator", ["batch-ls", "rls"])
@pytest.mark.parametrize("sampling_mode", ["continuous", "corner-only"])
def test_single_cycle_converges_noiseless(estimator, sampling_mode):
    peak = (10.0512, 70.0237)
    orbit = st.OrbitConfig(peak[0], peak[1], azimuth_amplitude=0.0, elevation_amplitude=0.0)
    plant = st.AntennaState(10.0, 70.0, 10.0, 70.0)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(
        cycle_period=20.0,
        estimator=estimator,
        sampling_mode=sampling_mode,
        dwell_time=0.2,
    )
    tracker, plant = _closed_loop(orbit, plant, rx, config, 20.0)
    assert tracker.cycle_index == 0
    assert tracker.phase is TrackerPhase.WAIT
    assert abs(plant.true_azimuth - peak[0]) <= plant.resolver_step + 1e-6
    assert abs(plant.true_elevation - peak[1]) <= plant.resolver_step + 1e-6


def test_zero_samples_forced_abort(caplog):
    plant = st.AntennaState(10.0, 70.0, 10.0, 70.0)
    config = TrackerConfig(cycle_period=20.0, estimator="batch-ls")
    tracker = StepTracker(config)
    first = st.BeaconSample(0.0, 10.0, 70.0, 5.0)
    tracker.step(plant, first, 0.0)
    assert tracker.phase is TrackerPhase.ACQUIRE
    # force the estimate phase with an empty buffer
    tracker.phase = TrackerPhase.ESTIMATE
    tracker._samples = []
    with caplog.at_level(logging.WARNING, logger="steptrack.tracker"):
        cmd = tracker.step(plant, first, 0.02)
    assert tracker.phase is TrackerPhase.WAIT
    assert cmd == tracker.pattern_center  # antenna sent back to center
    assert any("aborted" in r.message for r in caplog.records)


def test_rls_divergence_aborts_only_that_cycle(caplog):
    # A forgetting factor of 1e-9 with noise overflows the gain matrix, so
    # the fit comes back NaN. Each such cycle aborts back to its center and
    # the run goes on.
    orbit = st.OrbitConfig(
        180.0, 72.0, azimuth_amplitude=16.0, elevation_amplitude=1.2, period=600.0
    )
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.2)
    config = TrackerConfig(cycle_period=10.0, rect_half_width_el=0.03, forgetting=1e-9)
    with caplog.at_level(logging.WARNING, logger="steptrack.tracker"), np.errstate(all="ignore"):
        log = run_scenario(orbit, plant, rx, config, 60.0, peak_level_db=6.0)
    assert len(log) == 3000
    for name in ("t", "commanded_az", "commanded_el", "readback_az", "readback_el",
                 "beacon_db", "receiver_volts"):
        assert np.isfinite(log.column(name)).all(), name
    aborted = [r.message for r in caplog.records if "aborted" in r.message]
    assert len(aborted) == log.column("cycle_index").max() + 1
    assert all("non-finite estimate" in m for m in aborted)


def test_degenerate_curvature_skips_cycle(caplog):
    # pattern center elevation so high that the azimuth curvature floors out
    plant = st.AntennaState(10.0, 89.5, 10.0, 89.5, el_limits=(5.0, 90.0))
    config = TrackerConfig(cycle_period=20.0, rect_half_width_el=0.05)
    tracker = StepTracker(config)
    sample = st.BeaconSample(0.0, 10.0, 89.5, 5.0)
    with caplog.at_level(logging.WARNING, logger="steptrack.tracker"):
        cmd = tracker.step(plant, sample, 0.0)
    assert cmd is None
    assert tracker.phase is TrackerPhase.WAIT
    assert any("below floor" in r.message for r in caplog.records)


def test_infeasible_pattern_skips_cycle(caplog):
    plant = st.AntennaState(10.0, 69.99, 10.0, 69.99, el_limits=(5.0, 70.0))
    config = TrackerConfig(cycle_period=20.0)
    tracker = StepTracker(config)
    sample = st.BeaconSample(0.0, 10.0, 69.99, 5.0)
    with caplog.at_level(logging.WARNING, logger="steptrack.tracker"):
        cmd = tracker.step(plant, sample, 0.0)
    assert cmd is None
    assert tracker.phase is TrackerPhase.WAIT
    assert any("skipped" in r.message for r in caplog.records)
    # next cycle is still scheduled
    assert tracker.next_cycle_time == pytest.approx(20.0)


def test_wait_phase_issues_no_commands():
    orbit = st.OrbitConfig(
        180.0, 72.0, azimuth_amplitude=0.0, elevation_amplitude=0.0,
        drift_deg_per_day=432.0,
    )
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(cycle_period=60.0)
    log = run_scenario(orbit, plant, rx, config, 60.0, peak_level_db=6.0)
    waiting = (log.column("phase") == PHASES.index("wait")) & (log.column("t") > 10.0)
    assert np.count_nonzero(waiting) > 100
    commands = zip(log.column("commanded_az")[waiting], log.column("commanded_el")[waiting])
    assert len(set(commands)) == 1


# -- scenario runs ---------------------------------------------------------------

def _small_scenario(**tracker_kw):
    orbit = st.OrbitConfig(180.0, 72.0, azimuth_amplitude=0.0, elevation_amplitude=0.0)
    plant = st.AntennaState(180.05, 72.01, 180.05, 72.01)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(cycle_period=15.0, **tracker_kw)
    return orbit, plant, rx, config


def test_run_scenario_zero_duration_empty_log():
    orbit, plant, rx, config = _small_scenario()
    log = run_scenario(orbit, plant, rx, config, 0.0, peak_level_db=6.0)
    assert len(log) == 0


def test_run_scenario_record_count():
    orbit, plant, rx, config = _small_scenario()
    log = run_scenario(orbit, plant, rx, config, 30.0, peak_level_db=6.0)
    assert len(log) == 1500  # 30 s at 20 ms


def test_run_scenario_deterministic():
    orbit = st.OrbitConfig(180.0, 72.0, azimuth_amplitude=0.5, elevation_amplitude=0.1, period=300.0)
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.3, rng_seed=99)
    config = TrackerConfig(cycle_period=15.0)
    a = run_scenario(orbit, plant, rx, config, 40.0, peak_level_db=6.0)
    b = run_scenario(orbit, plant, rx, config, 40.0, peak_level_db=6.0)
    assert len(a) == len(b)
    for name in FIELDS:
        assert a.column(name).tobytes() == b.column(name).tobytes(), name


def test_run_scenario_rejects_cycle_shorter_than_pattern():
    orbit, plant, rx, _ = _small_scenario()
    config = TrackerConfig(cycle_period=1.0)
    assert pattern_duration(config, plant) > 1.0
    with pytest.raises(ValueError):
        run_scenario(orbit, plant, rx, config, 10.0, peak_level_db=6.0)


@pytest.mark.parametrize("k", [0.0, 1.0, float("nan"), float("-inf")])
def test_run_scenario_rejects_invalid_truth_curvature(k):
    orbit, plant, rx, config = _small_scenario()
    with pytest.raises(ValueError, match="truth_k_el"):
        run_scenario(orbit, plant, rx, config, 10.0, truth_k_el=k)


def test_run_scenario_checks_each_command_against_limits(monkeypatch):
    # No tracker decision leaves the limits; a command that did must stop
    # the run with the error ``command`` raises.
    orbit, plant, rx, config = _small_scenario()
    monkeypatch.setattr(StepTracker, "step", lambda self, plant, sample, now: (400.0, 72.0))
    with pytest.raises(AxisLimitError, match=r"target azimuth 400.0 outside limits \[0.0, 360.0\]"):
        run_scenario(orbit, plant, rx, config, 1.0)


def test_run_scenario_rejects_infeasible_initial_pattern():
    orbit = st.OrbitConfig(180.0, 72.0, azimuth_amplitude=0.0, elevation_amplitude=0.0)
    plant = st.AntennaState(180.0, 89.99, 180.0, 89.99)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(cycle_period=15.0)
    with pytest.raises(PatternInfeasibleError):
        run_scenario(orbit, plant, rx, config, 10.0, peak_level_db=6.0)


def test_run_scenario_checks_first_pattern_around_readback():
    # The pattern around the start pose fits these limits, but the first
    # cycle centres it on the readback, whose elevation 60.00183 puts the
    # top corners at 60.0518: every cycle would be skipped.
    orbit = st.OrbitConfig(180.0, 60.0, azimuth_amplitude=0.0, elevation_amplitude=0.0)
    plant = st.AntennaState(
        180, 60, 180, 60, az_limits=(179.8, 180.2), el_limits=(59.95, 60.05)
    )
    with pytest.raises(PatternInfeasibleError, match="corner elevation 60.0518"):
        run_scenario(orbit, plant, st.ReceiverConfig(), TrackerConfig(), 60.0)


# 1e300 s is finite, but numpy refuses its row count before allocating.
@pytest.mark.parametrize("duration", [float("nan"), float("inf"), 1e300])
def test_run_scenario_rejects_non_finite_duration(duration):
    orbit, plant, rx, config = _small_scenario()
    with pytest.raises(ValueError, match="duration"):
        run_scenario(orbit, plant, rx, config, duration)


def test_run_scenario_reports_rows_it_cannot_allocate(monkeypatch):
    def no_memory(*, capacity):
        raise MemoryError(f"cannot allocate {capacity} rows")

    monkeypatch.setattr("steptrack.tracker.TelemetryLog", no_memory)
    orbit, plant, rx, config = _small_scenario()
    with pytest.raises(ValueError, match="duration 60.0 s needs 3000 telemetry rows"):
        run_scenario(orbit, plant, rx, config, 60.0)


def test_phase_order_never_violated():
    orbit = st.OrbitConfig(
        180.0, 72.0, azimuth_amplitude=2.0, elevation_amplitude=0.2, period=600.0
    )
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.05, rng_seed=4)
    config = TrackerConfig(cycle_period=12.0)
    log = run_scenario(orbit, plant, rx, config, 60.0, peak_level_db=6.0)
    allowed = {
        ("acquire", "estimate"),
        ("estimate", "move"),
        ("move", "wait"),
        ("wait", "acquire"),
    }
    names = [PHASES[code] for code in log.column("phase").tolist()]
    transitions = [(a, b) for a, b in zip(names, names[1:]) if a != b]
    assert transitions, "expected at least one transition"
    assert set(transitions) <= allowed
    # exactly one estimate phase per completed cycle
    rows = zip(log.column("cycle_index").tolist(), names)
    for cycle, group in itertools.groupby(rows, key=lambda row: row[0]):
        phases = [phase for _, phase in group]
        blocks = [p for p, _ in itertools.groupby(phases)]
        if blocks[-1] == "wait" and "acquire" in blocks:  # completed cycle
            assert blocks.count("estimate") == 1


def test_continuous_sample_count_matches_acquire_ticks():
    orbit, plant, rx, config = _small_scenario(estimator="batch-ls")
    tracker = StepTracker(config)
    rng = np.random.default_rng(0)
    dt = config.sample_interval
    acquire_ticks = 0
    state = plant
    for i in range(round(15.0 / dt)):
        t = i * dt
        sat_az, sat_el = oracles.satellite_direction(orbit, t)
        field = ParabolaParams(
            k_az=oracles.az_coeff_from_elevation(config.k_el, sat_el),
            k_el=config.k_el, peak_az=sat_az, peak_el=sat_el, peak_level=6.0,
        )
        sample = oracles.measure(state, field, rx, t, rng=rng)
        cmd = tracker.step(state, sample, t)
        if tracker.phase is TrackerPhase.ACQUIRE:
            acquire_ticks += 1
        if cmd is not None:
            state = command(state, *cmd)
        state = tick(state, dt)
    assert len(tracker._samples) >= 3
    assert abs(len(tracker._samples) - acquire_ticks) <= 1


def test_corner_only_dwell_zero_takes_four_samples():
    orbit, plant, rx, _ = _small_scenario()
    config = TrackerConfig(
        cycle_period=15.0, sampling_mode="corner-only", dwell_time=0.0,
        estimator="batch-ls",
    )
    tracker = StepTracker(config)
    rng = np.random.default_rng(0)
    state = plant
    dt = config.sample_interval
    for i in range(round(10.0 / dt)):
        t = i * dt
        sat_az, sat_el = oracles.satellite_direction(orbit, t)
        field = ParabolaParams(
            k_az=oracles.az_coeff_from_elevation(config.k_el, sat_el),
            k_el=config.k_el, peak_az=sat_az, peak_el=sat_el, peak_level=6.0,
        )
        sample = oracles.measure(state, field, rx, t, rng=rng)
        cmd = tracker.step(state, sample, t)
        if cmd is not None:
            state = command(state, *cmd)
        state = tick(state, dt)
        if tracker.phase is TrackerPhase.WAIT and tracker.cycle_index == 0 and tracker.last_estimate:
            break
    assert len(tracker._samples) == 4


def test_sawtooth_post_move_not_below_pre_cycle_level():
    orbit = st.OrbitConfig(
        180.0, 72.0, azimuth_amplitude=0.0, elevation_amplitude=0.0,
        drift_deg_per_day=432.0,
    )
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(cycle_period=60.0)
    log = run_scenario(orbit, plant, rx, config, 360.0, peak_level_db=6.0)
    phase, cycle, db = (
        log.column(name).tolist() for name in ("phase", "cycle_index", "beacon_db")
    )
    waits = []  # the row indices of each wait
    for key, group in itertools.groupby(range(len(log)), key=lambda i: (phase[i], cycle[i])):
        if key[0] == PHASES.index("wait"):
            waits.append(list(group))
    assert len(waits) >= 4
    for before, after in zip(waits, waits[1:]):
        assert db[after[0]] >= db[before[-1]] - 1e-9


def test_figure8_commanded_trace(caplog):
    orbit = st.OrbitConfig(
        180.0, 72.0, azimuth_amplitude=16.0, elevation_amplitude=1.2, period=600.0
    )
    plant = st.AntennaState(180.0, 72.0, 180.0, 72.0)
    rx = st.ReceiverConfig(noise_sigma=0.0)
    config = TrackerConfig(cycle_period=10.0, rect_half_width_el=0.03)
    log = run_scenario(orbit, plant, rx, config, 600.0, peak_level_db=6.0)
    cmd_az = log.column("commanded_az").tolist()
    cmd_el = log.column("commanded_el").tolist()
    az_pp = max(cmd_az) - min(cmd_az)
    el_pp = max(cmd_el) - min(cmd_el)
    assert abs(az_pp - 32.0) / 32.0 < 0.10
    assert abs(el_pp - 1.2) / 1.2 < 0.10
    volts = log.column("receiver_volts")
    assert ((0.0 <= volts) & (volts <= 10.0)).all()
