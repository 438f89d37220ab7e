"""Golden bytes: what the ``steptrack`` commands write must not change.

The digests are sha256 of the CSV files written for the bundled scenarios
(``default_figure8`` cut to its first two cycles and their WAIT spans),
of what the offline commands print or write for that cut CSV, and of the
CSVs of tracker settings that no bundled scenario uses.
A change that alters them on purpose re-records them and says why.
"""

import contextlib
import dataclasses
import hashlib
import io

import numpy as np
import pytest

from steptrack.cli import main
from steptrack.scenario import load_scenario, resolve_scenario_path
from steptrack.telemetry import write_csv
from steptrack.tracker import run_scenario

GOLDEN = [
    ("desk_figure8", [], "a408c4445a1738889c3ec2695d33c43df802c7ad763c97562504f59e004b017c"),
    ("sawtooth_drift", [], "70800ec2a9da1606f39e1a9032cb6e0c9f91c352f62c21308f6d6597f0cf7bb9"),
    ("static_noiseless", [], "9a58906f687ace7127a5b9011de5463a86aaf1c894343e25c62fcbb1ead55acb"),
    (
        "default_figure8",
        ["--duration-s", "1200"],
        "1844c4a7ebb35a6b0c819d0ac7b8ca553f75e8f5dad3cfed2033b21148defa31",
    ),
]


@pytest.mark.parametrize("name, extra, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_simulate_csv_bytes_match_golden(tmp_path, name, extra, digest):
    out = tmp_path / "telemetry.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", name, "--output", str(out)] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of what the offline commands print (``stats``, ``fit``) or write
# (``trajectory``) for the ``default_figure8`` CSV cut at 1200 s, over the
# window of its second cycle.
WINDOW = ["--t0", "600", "--t1", "1199.99"]
FIT = ["fit", "{csv}", "--k-y", "-11.4"] + WINDOW
OFFLINE_GOLDEN = [
    ("stats", ["stats", "{csv}"] + WINDOW,
     "34e12d706f191afb5de19e79df1b13c0a54f6277f0b0f508823cad21e4d4e724"),
    ("fit-batch", FIT,
     "93fee4f3916a7b08ab40f01f1031144e7bec7b41573a0fd808b4512f439a3f8b"),
    ("fit-rls-1.0", FIT + ["--mode", "rls", "--forgetting", "1.0"],
     "93fee4f3916a7b08ab40f01f1031144e7bec7b41573a0fd808b4512f439a3f8b"),
    ("fit-rls-0.999", FIT + ["--mode", "rls", "--forgetting", "0.999"],
     "0c9e60bf29fa2e96692889da65381b76a41c03756e7306778426d8e6dba29ccf"),
    # The gain matrix winds up to inf/nan at 0.98: the fit prints nan.
    ("fit-rls-0.98", FIT + ["--mode", "rls", "--forgetting", "0.98"],
     "79006af32459f30b7b06f1f73ed11cd891dd1ea355193225381e5b483a1479ea"),
]
TRAJECTORY_DIGEST = "f063f116aa3cd646377592b166f727761ec11ef33157dd529ec7a2b2596d8c2f"


@pytest.fixture(scope="module")
def figure8_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("offline") / "telemetry.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "default_figure8", "--output", str(out),
                     "--duration-s", "1200"]) == 0
    return str(out)


@pytest.mark.parametrize(
    "argv, digest", [g[1:] for g in OFFLINE_GOLDEN], ids=[g[0] for g in OFFLINE_GOLDEN]
)
def test_offline_stdout_matches_golden(figure8_csv, argv, digest):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), np.errstate(all="ignore"):
        assert main([arg.format(csv=figure8_csv) for arg in argv]) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest


def test_trajectory_bytes_match_golden(figure8_csv, tmp_path):
    out = tmp_path / "trajectory.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["trajectory", figure8_csv, "--decimation", "50",
                     "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRAJECTORY_DIGEST


# sha256 of the CSV of tracker paths no bundled scenario runs: the
# desk_figure8 scenario with 0.2 dB noise, for 120 s, under each of these
# tracker settings.
TRACKER_GOLDEN = [
    ("corner-only-batch-ls",
     dict(sampling_mode="corner-only", dwell_time=0.2, estimator="batch-ls"),
     "26f6d4f7329a4829783e95de3b193958ab8c7fcea96d02bf3bd6b7104de25a89"),
    ("corner-only-rls",
     dict(sampling_mode="corner-only", dwell_time=0.2, estimator="rls"),
     "6efa63e7a54c9a3442df33bf1352d2c52265d005be2e218a1bec505221ab50e8"),
    ("batch-ls-1.5s", dict(estimator="batch-ls", cycle_period=1.5),
     "776490ab76530a8cec13930ac1f19cad29fdf5a5b652137a83f312f5e3c5510c"),
]


@pytest.mark.parametrize(
    "tracker, digest", [g[1:] for g in TRACKER_GOLDEN], ids=[g[0] for g in TRACKER_GOLDEN]
)
def test_tracker_path_csv_bytes_match_golden(tmp_path, tracker, digest):
    scenario = load_scenario(resolve_scenario_path("desk_figure8"))
    log = run_scenario(
        scenario.orbit,
        scenario.antenna,
        dataclasses.replace(scenario.receiver, noise_sigma=0.2),
        dataclasses.replace(scenario.tracker, **tracker),
        120.0,
        peak_level_db=scenario.peak_level_db,
    )
    out = tmp_path / "telemetry.csv"
    write_csv(log, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
