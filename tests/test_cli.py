"""Scenario loading and command-line interface tests."""

import dataclasses
import re
from importlib import resources

import numpy as np
import pytest

from steptrack.antenna import AntennaState, ReceiverConfig
from steptrack.beacon import az_coeff_from_elevation
from steptrack import telemetry
from steptrack.cli import main
from steptrack.scenario import (
    _FALLBACKS,
    _SCHEMA,
    Scenario,
    ScenarioError,
    load_scenario,
    resolve_scenario_path,
)
from steptrack.orbit import OrbitConfig
from steptrack.telemetry import read_csv
from steptrack.tracker import TrackerConfig

MINIMAL = """
duration_s: 4.0
seed: 3
output: out.csv

orbit:
  center_azimuth_deg: 10.05
  center_elevation_deg: 70.02
  azimuth_amplitude_deg: 0.0
  elevation_amplitude_deg: 0.0

antenna:
  azimuth_deg: 10.0
  elevation_deg: 70.0

receiver:
  noise_sigma_db: 0.0

parabola:
  k_y_db_per_deg2: -11.4
  peak_level_db: 6.0

tracker:
  cycle_period_s: 3.0
  estimator: batch-ls
"""


@pytest.fixture
def minimal_scenario(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(MINIMAL)
    return path


# -- scenario loading ----------------------------------------------------------

def test_load_minimal_scenario(minimal_scenario):
    sc = load_scenario(minimal_scenario)
    assert sc.duration == 4.0
    assert sc.orbit.center_azimuth == 10.05
    assert sc.antenna.true_azimuth == 10.0
    assert sc.receiver.rng_seed == 3
    assert sc.tracker.estimator == "batch-ls"
    assert sc.peak_level_db == 6.0


def test_tracker_k_defaults_to_parabola_k(minimal_scenario):
    sc = load_scenario(minimal_scenario)
    assert sc.tracker.k_el == -11.4


def test_antenna_defaults_to_orbit_center(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("antenna:\n  azimuth_deg: 10.0\n  elevation_deg: 70.0\n", ""))
    sc = load_scenario(path)
    assert sc.antenna.true_azimuth == sc.orbit.center_azimuth


def test_missing_k_y_names_field(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("  k_y_db_per_deg2: -11.4\n", ""))
    with pytest.raises(ScenarioError, match="parabola.k_y_db_per_deg2"):
        load_scenario(path)


def test_missing_duration_names_field(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("duration_s: 4.0\n", ""))
    with pytest.raises(ScenarioError, match="duration_s"):
        load_scenario(path)


def test_invalid_section_value_reported(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("cycle_period_s: 3.0", "cycle_period_s: -3.0"))
    with pytest.raises(ScenarioError, match="tracker"):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("cycle_period_s: 3.0", "cycle_period_s: .inf", "tracker.cycle_period_s"),
        ("noise_sigma_db: 0.0", "noise_sigma_db: .nan", "receiver.noise_sigma_db"),
        ("duration_s: 4.0", "duration_s: .inf", "duration_s"),
        pytest.param("duration_s: 4.0", "duration_s: " + "9" * 400, "duration_s",
                     id="duration_s-beyond-float"),
        ("  elevation_deg: 70.0", "  elevation_deg: 70.0\n  az_limits_deg: [-.inf, .inf]",
         "antenna.az_limits_deg"),
    ],
)
def test_non_finite_value_names_field(tmp_path, old, new, field):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace(old, new))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("seed: 3", "sed: 3", "sed"),
        ("receiver:", "recever:", "recever"),
        ("azimuth_amplitude_deg:", "azimuth_amplitude:", "orbit.azimuth_amplitude"),
        ("  azimuth_deg:", "  azimuth:", "antenna.azimuth"),
        ("noise_sigma_db:", "noise_sigma:", "receiver.noise_sigma"),
        ("peak_level_db:", "peak_level:", "parabola.peak_level"),
        ("estimator:", "estimater:", "tracker.estimater"),
        # Keys of removed tracker settings.
        ("  estimator:", "  carry_rls_state: false\n  estimator:", "tracker.carry_rls_state"),
        ("  estimator:", "  rls_delta: 1.0e+4\n  estimator:", "tracker.rls_delta"),
        ("  estimator:", "  kx_floor_db_per_deg2: 0.5\n  estimator:",
         "tracker.kx_floor_db_per_deg2"),
    ],
)
def test_unknown_key_names_field(tmp_path, old, new, field):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace(old, new))
    with pytest.raises(ScenarioError, match=re.escape(f"unknown field '{field}'")):
        load_scenario(path)


def test_schema_matches_config_classes():
    # A key whose field is gone breaks every load, and a field no key
    # sets can never be configured.
    keys = []  # the (class, field) each key sets
    for cls, target in _SCHEMA.values():
        if isinstance(target, dict):
            keys += [t if isinstance(t, tuple) else (cls, t) for t in target.values()]
        else:
            keys.append((cls, target))
    sections = {
        (Scenario, name) for name, (cls, target) in _SCHEMA.items()
        if isinstance(target, dict) and cls is not Scenario
    }
    classes = (OrbitConfig, AntennaState, ReceiverConfig, TrackerConfig, Scenario)
    names = {cls: {f.name for f in dataclasses.fields(cls)} for cls in classes}
    for cls, field in [*keys, *sections, *_FALLBACKS, *_FALLBACKS.values()]:
        assert field in names[cls], (cls, field)
    for cls in classes:
        for field in names[cls]:
            n = keys.count((cls, field))
            assert n <= 1, (cls, field)
            assert n or (cls, field) in _FALLBACKS or (cls, field) in sections, (cls, field)


def test_misspelled_scenario_names_first_unknown_key(tmp_path):
    # Each of these loaded before and ran on the defaults in its place.
    text = (
        MINIMAL.replace("azimuth_amplitude_deg:", "azimuth_amplitude:")
        .replace("cycle_period_s:", "cycle_period:")
        .replace("estimator:", "estimater:")
        .replace("receiver:", "recever:")
    )
    path = tmp_path / "s.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape("'orbit.azimuth_amplitude'")):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("  elevation_deg: 70.0", '  elevation_deg: 70.0\n  az_limits_deg: ["0", true]',
         "antenna.az_limits_deg"),
        ("  elevation_deg: 70.0", "  elevation_deg: 70.0\n  az_limits_deg: [0, 90, 180]",
         "antenna.az_limits_deg"),
        ("seed: 3", "seed: true", "seed"),
        ("seed: 3", "seed:", "seed"),
        ("duration_s: 4.0", "duration_s: '4.0'", "duration_s"),
        ("estimator: batch-ls", "estimator: 3", "tracker.estimator"),
        ("orbit:", "orbit: 3\nunused:", "orbit"),
    ],
)
def test_mistyped_value_names_field(tmp_path, old, new, field):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace(old, new))
    with pytest.raises(ScenarioError, match=re.escape(field)):
        load_scenario(path)


def test_negative_seed_names_field(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("seed: 3", "seed: -1"))
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(path)


def test_left_out_keys_take_class_defaults(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "duration_s: 4.0\n"
        "orbit: {center_azimuth_deg: 180.0, center_elevation_deg: 72.0}\n"
        "parabola: {k_y_db_per_deg2: -11.4, peak_level_db: 6.0}\n"
    )
    sc = load_scenario(path)
    assert sc.orbit == OrbitConfig(180.0, 72.0)
    assert sc.antenna == AntennaState(180.0, 72.0, 180.0, 72.0)
    assert sc.receiver == ReceiverConfig()
    assert sc.tracker == TrackerConfig(k_el=-11.4)
    assert sc.output == "telemetry.csv"


def test_bundled_scenarios_load():
    root = resources.files("steptrack").joinpath("scenarios")
    names = [p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml")]
    assert "default_figure8" in names
    for name in names:
        load_scenario(resolve_scenario_path(name))


def test_unknown_scenario_name():
    with pytest.raises(ScenarioError):
        resolve_scenario_path("no_such_scenario")


# -- simulate ---------------------------------------------------------------------

def test_simulate_writes_expected_records(minimal_scenario, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", str(minimal_scenario), "--output", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote 200 records" in captured  # 4 s at 20 ms
    assert "beacon mean" in captured
    assert "peak-to-peak" in captured
    assert out.exists()
    assert len(out.read_text().splitlines()) == 201  # header + records


def test_simulate_bundled_name_with_duration_override(tmp_path, capsys):
    out = tmp_path / "fig8.csv"
    code = main(["simulate", "default_figure8", "--duration-s", "60", "--output", str(out)])
    assert code == 0
    # one record per 20 ms sampling step
    assert "wrote 3000 records" in capsys.readouterr().out


def test_simulate_duration_zero(minimal_scenario, tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code = main(["simulate", str(minimal_scenario), "--output", str(out), "--duration-s", "0"])
    assert code == 0
    assert "wrote 0 records" in capsys.readouterr().out


# 1e300 s is finite, but its rows cannot be allocated.
@pytest.mark.parametrize("duration", ["inf", "nan", "1e300"])
def test_simulate_non_finite_duration_exits_one(minimal_scenario, tmp_path, capsys, duration):
    out = tmp_path / "run.csv"
    code = main(["simulate", str(minimal_scenario), "--output", str(out),
                 "--duration-s", duration])
    assert code == 1
    assert "duration" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_failing_csv_writer_exits_one(tmp_path, monkeypatch, capsys):
    # Three write blocks, forced onto two writer processes; the forked one fails.
    monkeypatch.setattr(telemetry, "_MIN_FORK_ROWS", 1)
    monkeypatch.setattr(telemetry, "_available_cpus", lambda: 2)
    real = telemetry._write_rows

    def write_rows(cols, lo, hi, out):
        if lo:
            raise RuntimeError("writer failed")
        real(cols, lo, hi, out)

    monkeypatch.setattr(telemetry, "_write_rows", write_rows)
    out = tmp_path / "run.csv"
    code = main(["simulate", "desk_figure8", "--duration-s", "200", "--output", str(out)])
    assert code == 1
    assert "error: cannot write" in capsys.readouterr().err


def test_simulate_missing_field_exits_one(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("  k_y_db_per_deg2: -11.4\n", ""))
    code = main(["simulate", str(path)])
    assert code == 1
    assert "k_y_db_per_deg2" in capsys.readouterr().err


def test_simulate_infeasible_pattern_exits_one(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("elevation_deg: 70.0", "elevation_deg: 89.99"))
    code = main(["simulate", str(path)])
    assert code == 1


def test_simulate_byte_identical_runs(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("noise_sigma_db: 0.0", "noise_sigma_db: 0.3"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(path), "--output", str(out1)]) == 0
    assert main(["simulate", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_truth_curvature_comes_from_parabola(tmp_path):
    # A tracker a-priori curvature of -5.0 must leave the simulated surface
    # at the parabola's -11.4: step 10 of the noiseless, driftless desk run
    # logs the -11.4 level (it logged 5.968 when the tracker's set it).
    path = tmp_path / "s.yaml"
    text = resolve_scenario_path("desk_figure8").read_text()
    path.write_text(text + "  k_y_db_per_deg2: -5.0\n")
    scenario = load_scenario(path)
    assert (scenario.tracker.k_el, scenario.truth_k_el) == (-5.0, -11.4)
    assert scenario.receiver.noise_sigma == scenario.receiver.drift_amplitude == 0.0
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--output", str(out), "--duration-s", "1"]) == 0
    assert read_csv(str(out)).column("beacon_db")[10] == 5.927778437290485


def test_non_negative_truth_curvature_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        MINIMAL.replace("  k_y_db_per_deg2: -11.4\n", "  k_y_db_per_deg2: 0.0\n")
        + "  k_y_db_per_deg2: -11.4\n"
    )
    with pytest.raises(ScenarioError, match="truth_k_el"):
        load_scenario(path)


# -- fit ----------------------------------------------------------------------------

@pytest.fixture
def static_log(minimal_scenario, tmp_path):
    out = tmp_path / "static.csv"
    assert main(["simulate", str(minimal_scenario), "--output", str(out)]) == 0
    return out


def test_fit_recovers_generator_peak(static_log, capsys):
    code = main(["fit", str(static_log), "--k-y", "-11.4"])
    assert code == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = float(rest.split()[0])
    assert values["peak azimuth"] == pytest.approx(10.05, abs=1e-3)
    assert values["peak elevation"] == pytest.approx(70.02, abs=1e-3)
    assert values["peak level"] == pytest.approx(6.0, abs=1e-3)


def test_fit_synthetic_noiseless_log_to_1e6(tmp_path, capsys):
    # log written directly from the parabola (positions unquantized)
    from steptrack.beacon import ParabolaParams, beacon_level
    from steptrack.telemetry import TelemetryLog, write_csv

    params = ParabolaParams(
        k_az=az_coeff_from_elevation(-11.4, 70.02), k_el=-11.4,
        peak_az=10.05, peak_el=70.02, peak_level=6.0,
    )
    rng_positions = [
        (10.05 + 0.2 * dx, 70.02 + 0.05 * dy)
        for dx in (-1.0, -0.5, 0.0, 0.5, 1.0)
        for dy in (-1.0, 0.0, 1.0)
    ]
    log = TelemetryLog()
    for i, (az, el) in enumerate(rng_positions):
        level = beacon_level(params, az, el)
        log.append(i * 0.02, az, el, az, el, level, 5.0, "acquire", 0)
    path = tmp_path / "synthetic.csv"
    write_csv(log, str(path))
    assert main(["fit", str(path), "--k-y", "-11.4"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split(":")[1].split()[0]) for line in out.splitlines()]
    assert values[0] == pytest.approx(10.05, abs=1e-6)
    assert values[1] == pytest.approx(70.02, abs=1e-6)
    assert values[2] == pytest.approx(6.0, abs=1e-6)
    assert values[3] < 1e-9  # residual rms of an exact model


def test_fit_batch_and_rls_agree(static_log, capsys):
    assert main(["fit", str(static_log), "--k-y", "-11.4", "--mode", "batch-ls"]) == 0
    batch = capsys.readouterr().out
    assert main([
        "fit", str(static_log), "--k-y", "-11.4", "--mode", "rls", "--forgetting", "1.0",
    ]) == 0
    rls = capsys.readouterr().out

    def peak_values(text):
        return [float(line.split(":")[1].split()[0]) for line in text.splitlines()[:3]]

    for a, b in zip(peak_values(batch), peak_values(rls)):
        assert a == pytest.approx(b, abs=1e-4)


def test_fit_small_window_exits_two(static_log, capsys):
    code = main(["fit", str(static_log), "--k-y", "-11.4", "--t0", "0.0", "--t1", "0.02"])
    assert code == 2
    assert "need at least 3" in capsys.readouterr().err


def test_fit_wound_up_rls_exits_two(tmp_path, capsys):
    # A rectangle pattern, then 12 minutes holding still: at forgetting
    # 0.98 the gain matrix winds up to NaN, and the fit has no peak.
    from steptrack.telemetry import TelemetryLog, write_csv

    rng = np.random.default_rng(12)
    corners = np.repeat([(-0.2, -0.05), (0.2, -0.05), (0.2, 0.05), (-0.2, 0.05)], 50, 0)
    pos = np.vstack([corners, np.tile([(0.01, -0.02)], (36_000, 1))])
    az, el = 180.0 + pos[:, 0], 72.0 + pos[:, 1]
    log = TelemetryLog()
    level = 6.0 + 0.2 * rng.standard_normal(len(pos))
    log.extend(np.arange(len(pos)) * 0.02, az, el, az, el, level, 5.0, "acquire", 0)
    path = tmp_path / "windup.csv"
    write_csv(log, str(path))
    argv = ["fit", str(path), "--k-y", "-11.4", "--mode", "rls", "--forgetting", "0.98"]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: non-finite estimate" in captured.err


def test_fit_empty_window_exits_two(static_log, capsys):
    code = main(["fit", str(static_log), "--k-y", "-11.4", "--t0", "100.0", "--t1", "200.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "no records in window [100.0, 200.0]" in err
    assert "Warning" not in err


@pytest.mark.parametrize("option", [["--delta", "1e4"], ["--k-floor", "0.5"]])
def test_fit_removed_option_is_usage_error(static_log, capsys, option):
    assert main(["fit", str(static_log), "--k-y", "-11.4", *option]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option",
    [
        ["--forgetting", "0"],
        ["--forgetting", "1.5"],
        ["--forgetting", "nan"],
        ["--forgetting", "5", "--mode", "batch-ls"],
        ["--k-y", "0"],
        ["--k-y", "nan"],
    ],
    ids=" ".join,
)
def test_fit_invalid_option_value_is_usage_error(static_log, capsys, option):
    code = main(["fit", str(static_log), "--k-y", "-11.4", "--mode", "rls", *option])
    assert code == 1
    assert f"argument {option[0]}:" in capsys.readouterr().err


def test_fit_missing_log_exits_one(tmp_path):
    assert main(["fit", str(tmp_path / "nope.csv"), "--k-y", "-11.4"]) == 1


# -- stats and trajectory --------------------------------------------------------------

def test_stats_constant_synthetic(tmp_path, capsys):
    from steptrack.telemetry import TelemetryLog, write_csv

    log = TelemetryLog()
    log.extend(range(10), 0, 0, 0, 0, 2.5, 5.0, "wait", 0)
    path = tmp_path / "const.csv"
    write_csv(log, str(path))
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "stddev  : 0.000000" in out
    assert "mean    : 2.500000" in out


def test_stats_empty_window_exits_one(static_log):
    assert main(["stats", str(static_log), "--t0", "100.0", "--t1", "200.0"]) == 1


def test_trajectory_row_count(static_log, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", str(static_log), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 201  # header + one row per record


def test_trajectory_decimated(static_log, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", str(static_log), "--decimation", "50", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 4  # 200 records / 50


def test_usage_error_exits_one(capsys):
    assert main(["simulate"]) == 1
    assert main(["frobnicate"]) == 1
