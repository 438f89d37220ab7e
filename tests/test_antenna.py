"""Antenna plant and receiver tests: slewing, quantization, measurement."""

import numpy as np
import pytest

from steptrack.antenna import (
    DEFAULT_RESOLVER_STEP,
    AntennaState,
    AxisLimitError,
    ReceiverConfig,
    command,
    measure,
    quantize_angle,
    receiver_voltage,
    tick,
)
from steptrack.beacon import ParabolaParams, beacon_level


def _plant(**kw):
    base = dict(
        true_azimuth=10.0,
        true_elevation=70.0,
        target_azimuth=10.0,
        target_elevation=70.0,
    )
    base.update(kw)
    return AntennaState(**base)


def _params(**kw):
    base = dict(k_az=-1.0, k_el=-11.4, peak_az=10.0, peak_el=70.0, peak_level=6.0)
    base.update(kw)
    return ParabolaParams(**base)


# -- command ---------------------------------------------------------------

def test_command_stores_target_only():
    state = _plant()
    moved = command(state, 11.0, 70.5)
    assert (moved.target_azimuth, moved.target_elevation) == (11.0, 70.5)
    assert (moved.true_azimuth, moved.true_elevation) == (10.0, 70.0)


def test_command_outside_limits_rejected():
    state = _plant()
    with pytest.raises(AxisLimitError):
        command(state, 361.0, 70.0)
    with pytest.raises(AxisLimitError):
        command(state, 10.0, 2.0)


def test_command_then_slew_one_second():
    state = command(_plant(), 11.0, 70.0)
    for _ in range(50):
        state = tick(state, 0.02)
    assert state.true_azimuth == pytest.approx(11.0, abs=1e-9)


# -- tick ------------------------------------------------------------------

def test_tick_at_target_is_fixed_point():
    state = _plant()
    assert tick(state, 1.0) is state


def test_tick_moves_rate_times_dt():
    state = command(_plant(), 12.0, 70.0)
    state = tick(state, 0.5)
    assert state.true_azimuth == pytest.approx(10.5)


def test_tick_clamps_at_target():
    state = command(_plant(), 10.3, 70.0)
    state = tick(state, 1.0)
    assert state.true_azimuth == 10.3


def test_tick_axes_move_simultaneously():
    state = command(_plant(el_slew_rate=0.5), 11.0, 71.0)
    state = tick(state, 1.0)
    assert state.true_azimuth == pytest.approx(11.0)
    assert state.true_elevation == pytest.approx(70.5)


def test_tick_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        tick(_plant(), 0.0)


def test_tick_never_overshoots_random_walk():
    rng = np.random.default_rng(3)
    state = _plant()
    for _ in range(300):
        target_az = rng.uniform(5.0, 15.0)
        target_el = rng.uniform(65.0, 75.0)
        state = command(state, target_az, target_el)
        dt = rng.uniform(0.02, 2.0)
        before = state
        state = tick(state, dt)
        for cur, prev, tgt, rate in (
            (state.true_azimuth, before.true_azimuth, target_az, state.az_slew_rate),
            (state.true_elevation, before.true_elevation, target_el, state.el_slew_rate),
        ):
            assert abs(cur - prev) <= rate * dt + 1e-12
            # never past the target
            assert (tgt - cur) * (tgt - prev) >= -1e-12


# -- resolvers ---------------------------------------------------------------

def test_resolver_rounds_to_nearest_multiple():
    assert quantize_angle(10.004, 0.01) == pytest.approx(10.0, abs=1e-12)


def test_resolver_exact_multiple_unchanged():
    step = DEFAULT_RESOLVER_STEP
    assert quantize_angle(1000 * step, step) == 1000 * step


def test_resolver_sixteen_bit_step():
    az = quantize_angle(0.003, DEFAULT_RESOLVER_STEP)
    assert az == pytest.approx(DEFAULT_RESOLVER_STEP, abs=1e-15)


def test_resolver_error_bounded_by_half_step():
    rng = np.random.default_rng(11)
    for _ in range(500):
        true_az = rng.uniform(0.0, 360.0)
        true_el = rng.uniform(5.0, 90.0)
        az = quantize_angle(true_az, DEFAULT_RESOLVER_STEP)
        el = quantize_angle(true_el, DEFAULT_RESOLVER_STEP)
        assert abs(az - true_az) <= DEFAULT_RESOLVER_STEP / 2 + 1e-12
        assert abs(el - true_el) <= DEFAULT_RESOLVER_STEP / 2 + 1e-12


# -- measurement -------------------------------------------------------------

def _level(params, rx, t=0.0, az=10.0, el=70.0):
    """The one level ``measure`` gives at time ``t`` with the plant at (az, el)."""
    level = measure(az, el, params, rx, np.array([t]), np.random.default_rng(0))
    return float(np.ravel(level)[0])


def test_measure_at_peak_noiseless():
    rx = ReceiverConfig(noise_sigma=0.0, drift_amplitude=0.0)
    assert _level(_params(), rx) == 6.0


def test_measure_clamps_at_floor():
    rx = ReceiverConfig(floor_db=-24.0, noise_sigma=0.0)
    params = _params(peak_az=40.0)  # 30 deg off in azimuth: far below floor
    assert _level(params, rx) == -24.0


def test_measure_uses_true_angles_but_reports_readbacks():
    # The level is taken at the true pointing, not at the readback that
    # the caller takes with quantize_angle.
    true_az = 10.0 + DEFAULT_RESOLVER_STEP / 3
    readback = quantize_angle(true_az, DEFAULT_RESOLVER_STEP)
    rx = ReceiverConfig(noise_sigma=0.0)
    level = _level(_params(), rx, az=true_az)
    assert level == beacon_level(_params(), true_az, 70.0)
    assert level != beacon_level(_params(), readback, 70.0)


def test_measure_drift_term():
    rx = ReceiverConfig(noise_sigma=0.0, drift_amplitude=0.5, drift_period=100.0)
    level = _level(_params(), rx, t=25.0)  # sin at quarter period = 1
    assert level == pytest.approx(6.5, abs=1e-12)


def test_measure_seeded_sequences_repeat():
    rx = ReceiverConfig(noise_sigma=0.3, rng_seed=7)
    t = np.arange(100) * 0.02

    def sequence():
        rng = np.random.default_rng(rx.rng_seed)
        return measure(10.0, 70.0, _params(), rx, t, rng).tolist()

    first, second = sequence(), sequence()
    assert first == second
    assert len(set(first)) > 1  # actually noisy


# -- voltage -----------------------------------------------------------------

def test_voltage_endpoints():
    rx = ReceiverConfig(floor_db=-24.0, max_db=6.0)
    assert receiver_voltage(np.array([-24.0, 6.0]), rx).tolist() == [0.0, 10.0]


def test_voltage_midpoint():
    rx = ReceiverConfig(floor_db=-24.0, max_db=6.0)
    assert receiver_voltage(np.array([-9.0]), rx)[0] == pytest.approx(5.0, abs=1e-12)


def test_voltage_clamped():
    rx = ReceiverConfig(floor_db=-24.0, max_db=6.0)
    assert receiver_voltage(np.array([-40.0, 20.0]), rx).tolist() == [0.0, 10.0]


# -- config validation ---------------------------------------------------------

def test_state_validation():
    with pytest.raises(AxisLimitError):
        _plant(true_azimuth=-5.0)
    with pytest.raises(ValueError):
        _plant(az_slew_rate=0.0)
    with pytest.raises(ValueError):
        _plant(resolver_step=-0.01)


def test_receiver_validation():
    with pytest.raises(ValueError):
        ReceiverConfig(floor_db=6.0, max_db=-24.0)
    with pytest.raises(ValueError):
        ReceiverConfig(noise_sigma=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("az_slew_rate", float("inf")),
        ("el_slew_rate", float("nan")),
        ("resolver_step", float("inf")),
        ("az_limits", (float("-inf"), float("inf"))),
        ("el_limits", (5.0, float("nan"))),
    ],
)
def test_state_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        _plant(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("floor_db", float("-inf")),
        ("max_db", float("inf")),
        ("noise_sigma", float("nan")),
        ("drift_amplitude", float("nan")),
        ("drift_period", float("inf")),
    ],
)
def test_receiver_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ReceiverConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_receiver_rejects_bad_seed(seed):
    # A negative seed used to construct and then fail inside numpy, at the
    # start of the run, with an error that named no field.
    with pytest.raises(ValueError, match="rng_seed"):
        ReceiverConfig(rng_seed=seed)


def test_receiver_accepts_numpy_integer_seed():
    assert ReceiverConfig(rng_seed=np.int64(5)).rng_seed == 5
