"""Figure-8 orbit generator tests: parametrization, periodicity, topology."""


import numpy as np
import pytest

from steptrack.orbit import OrbitConfig, satellite_direction, satellite_direction_array


def _default(**kw):
    base = dict(
        center_azimuth=180.0,
        center_elevation=72.0,
        azimuth_amplitude=15.0,
        elevation_amplitude=1.0,
        period=600.0,
        phase=0.0,
    )
    base.update(kw)
    return OrbitConfig(**base)


def test_zero_amplitude_is_stationary():
    config = _default(azimuth_amplitude=0.0, elevation_amplitude=0.0)
    for t in (0.0, 17.3, 599.0, 12345.6):
        assert satellite_direction(config, t) == (180.0, 72.0)


def test_quarter_period_hits_azimuth_extreme():
    config = _default()
    az, el = satellite_direction(config, config.period / 4.0)
    assert az == pytest.approx(180.0 + 15.0, abs=1e-9)
    # double-frequency axis: sin(pi) = 0
    assert el == pytest.approx(72.0, abs=1e-9)


def test_periodicity():
    config = _default(phase=0.3)
    for t in (0.0, 123.4, 500.0):
        a0, e0 = satellite_direction(config, t)
        a1, e1 = satellite_direction(config, t + config.period)
        assert a1 == pytest.approx(a0, abs=1e-9)
        assert e1 == pytest.approx(e0, abs=1e-9)


def test_amplitude_bounds():
    config = _default(phase=1.1)
    for i in range(2000):
        az, el = satellite_direction(config, i * 0.437)
        assert abs(az - 180.0) <= 15.0 + 1e-12
        assert abs(el - 72.0) <= 1.0 + 1e-12


def test_elevation_major_mode_swaps_roles():
    config = _default(axis_mode="elevation-major", elevation_amplitude=1.0)
    az, el = satellite_direction(config, config.period / 4.0)
    assert el == pytest.approx(73.0, abs=1e-9)
    assert az == pytest.approx(180.0, abs=1e-9)


def test_drift_moves_major_axis():
    config = _default(azimuth_amplitude=0.0, elevation_amplitude=0.0, drift_deg_per_day=1.0)
    az, el = satellite_direction(config, 43200.0)  # half a day
    assert az == pytest.approx(180.5, abs=1e-9)
    assert el == 72.0


def _trace(config, step):
    """Satellite azimuth and elevation sampled every ``step`` over one period."""
    t = np.arange(round(config.period / step) + 1) * step
    return satellite_direction_array(config, t)


def test_trace_stationary_config():
    config = _default(azimuth_amplitude=0.0, elevation_amplitude=0.0)
    az, el = _trace(config, 2.5)
    assert (az == 180.0).all() and (el == 72.0).all()


def test_trace_extrema_span_twice_amplitude():
    config = _default()
    az, _ = _trace(config, config.period / 4096.0)
    assert az.max() - az.min() == pytest.approx(30.0, abs=1e-6)


def test_trace_crosses_center_azimuth_twice_per_period():
    config = _default(phase=0.3)
    az, _ = _trace(config, 0.25)
    signs = np.sign(az[az != 180.0] - 180.0)
    assert np.count_nonzero(signs[1:] != signs[:-1]) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        _default(period=0.0)
    with pytest.raises(ValueError):
        _default(azimuth_amplitude=-1.0)
    with pytest.raises(ValueError):
        _default(center_elevation=89.5)  # 89.5 + 1.0 > 90
    with pytest.raises(ValueError):
        _default(axis_mode="diagonal")


@pytest.mark.parametrize(
    "field",
    ["center_azimuth", "center_elevation", "azimuth_amplitude",
     "elevation_amplitude", "period", "phase", "drift_deg_per_day"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        _default(**{field: value})
