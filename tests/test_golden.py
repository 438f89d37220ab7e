"""Golden bytes: the CSVs that ``steptrack simulate`` writes must not change.

The digests are sha256 of the CSV files written for the bundled scenarios
(``default_figure8`` cut to its first two cycles and their WAIT spans).
A change that alters them on purpose re-records them and says why.
"""

import contextlib
import hashlib
import io

import pytest

from steptrack.cli import main

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
