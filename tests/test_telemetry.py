"""Telemetry log tests: ordering, statistics, trajectory, CSV round trip."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steptrack.telemetry import (
    CSV_HEADER,
    FIELDS,
    PHASES,
    TelemetryLog,
    TelemetryRecord,
    beacon_stats,
    extract_trajectory,
    format_float,
    format_floats,
    read_csv,
    time_window,
    write_csv,
)


def _record(t, level=0.0, az=180.0, el=72.0):
    return TelemetryRecord(
        t=t,
        commanded_az=az,
        commanded_el=el,
        readback_az=az,
        readback_el=el,
        beacon_db=level,
        receiver_volts=5.0,
        phase="wait",
        cycle_index=0,
    )


def test_append_grows_log():
    log = TelemetryLog()
    log.append(_record(0.0))
    assert len(log) == 1


def test_append_rejects_equal_time():
    log = TelemetryLog([_record(1.0)])
    with pytest.raises(ValueError):
        log.append(_record(1.0))


def test_append_rejects_backward_time():
    log = TelemetryLog([_record(2.0)])
    with pytest.raises(ValueError):
        log.append(_record(1.5))


def test_append_preserves_order():
    records = [_record(i * 0.02) for i in range(100)]
    log = TelemetryLog(records)
    assert list(log) == records


def test_stats_constant_level():
    log = TelemetryLog([_record(i, level=2.5) for i in range(10)])
    stats = beacon_stats(log)
    assert stats == (2.5, 0.0, 2.5, 2.5)


def test_stats_two_levels():
    log = TelemetryLog([_record(0.0, level=1.0), _record(1.0, level=3.0)])
    stats = beacon_stats(log)
    assert stats.mean == 2.0
    assert stats.stddev == 1.0  # population, divide by N
    assert (stats.minimum, stats.maximum) == (1.0, 3.0)


def test_stats_full_window_equals_whole_log():
    rng = np.random.default_rng(2)
    log = TelemetryLog([_record(i, level=rng.normal()) for i in range(50)])
    assert beacon_stats(log) == beacon_stats(log, 0.0, 49.0)


def test_stats_empty_window_rejected():
    log = TelemetryLog([_record(0.0)])
    with pytest.raises(ValueError):
        beacon_stats(log, 10.0, 20.0)


def test_stats_pooled_windows_match_oracle():
    rng = np.random.default_rng(8)
    levels = rng.normal(2.0, 1.3, 60)
    log = TelemetryLog([_record(i, level=lv) for i, lv in enumerate(levels)])
    a = beacon_stats(log, 0, 29)
    b = beacon_stats(log, 30, 59)
    whole = beacon_stats(log)
    n1 = n2 = 30
    pooled_mean = (n1 * a.mean + n2 * b.mean) / (n1 + n2)
    pooled_var = (
        n1 * (a.stddev**2 + (a.mean - pooled_mean) ** 2)
        + n2 * (b.stddev**2 + (b.mean - pooled_mean) ** 2)
    ) / (n1 + n2)
    assert whole.mean == pytest.approx(pooled_mean, abs=1e-12)
    assert whole.stddev == pytest.approx(math.sqrt(pooled_var), abs=1e-12)


BOUNDS = [None, -1.0, 0.0, 2.5, 3.0, 9.0, 12.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("t0", BOUNDS)
@pytest.mark.parametrize("t1", BOUNDS)
def test_time_window_selects_inclusive_range(t0, t1):
    log = TelemetryLog([_record(float(i)) for i in range(10)])
    inside = [
        i for i in range(10) if (t0 is None or i >= t0) and (t1 is None or i <= t1)
    ]
    assert list(range(10))[time_window(log, t0, t1)] == inside


def test_trajectory_decimation_one_keeps_all():
    log = TelemetryLog([_record(i, az=float(i)) for i in range(10)])
    assert len(extract_trajectory(log, 1)) == 10


def test_trajectory_decimation_equal_length_single_point():
    log = TelemetryLog([_record(i, az=float(i)) for i in range(10)])
    points = extract_trajectory(log, 10)
    assert points == [(0.0, 72.0)]


def test_trajectory_stride():
    log = TelemetryLog([_record(i, az=float(i)) for i in range(10)])
    points = extract_trajectory(log, 3)
    assert [p[0] for p in points] == [0.0, 3.0, 6.0, 9.0]


def test_trajectory_rejects_zero_decimation():
    log = TelemetryLog([_record(0.0)])
    with pytest.raises(ValueError):
        extract_trajectory(log, 0)


def test_format_float_pads_to_six_decimals():
    assert format_float(0.02) == "0.020000"
    assert format_float(5.0) == "5.000000"


def test_format_float_keeps_full_precision():
    value = 0.1 + 0.2  # 0.30000000000000004
    assert float(format_float(value)) == value


def test_csv_round_trip_bit_exact(tmp_path):
    # deliberately awkward values: accumulated 0.02 steps, thirds, negatives
    records = []
    t = 0.0
    for i in range(200):
        records.append(
            TelemetryRecord(
                t=t,
                commanded_az=180.0 + i / 3.0,
                commanded_el=72.0 - i / 7.0,
                readback_az=(i * 360.0 / 65536.0),
                readback_el=5.0 + i * 0.013,
                beacon_db=-24.0 + i * 0.1500001,
                receiver_volts=min(10.0, i * 0.05),
                phase="acquire" if i % 3 else "wait",
                cycle_index=i // 50,
            )
        )
        t += 0.02
    log = TelemetryLog(records)
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    back = read_csv(str(path))
    assert len(back) == len(log)
    for orig, loaded in zip(log, back):
        assert orig == loaded  # bit-exact floats, exact strings/ints


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


ROW = "0.5,180.25,72.0,180.0,-72.5,5.5,6.0,wait,3"


def _read_text(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    return read_csv(str(path))


def test_read_csv_accepts_crlf_line_endings(tmp_path):
    log = _read_text(tmp_path, CSV_HEADER + "\r\n" + ROW + "\r\n")
    assert list(log) == [
        TelemetryRecord(0.5, 180.25, 72.0, 180.0, -72.5, 5.5, 6.0, "wait", 3)
    ]


def test_read_csv_skips_blank_lines(tmp_path):
    later = ROW.replace("0.5,", "0.75,", 1)
    log = _read_text(tmp_path, f"{CSV_HEADER}\n\n{ROW}\n\r\n\n{later}\n\n")
    assert log.column("t").tolist() == [0.5, 0.75]


@pytest.mark.parametrize("rest", ["", "\n", "\n\r\n\n"])
def test_read_csv_header_only_gives_empty_log(tmp_path, rest):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(_read_text(tmp_path, CSV_HEADER + "\n" + rest)) == 0


@pytest.mark.parametrize(
    "line",
    [
        ROW.replace(",5.5,", ",5.5#x,"),
        "# " + ROW,
        "# a comment",
        ROW.replace(",3", ",3 # note"),
    ],
)
def test_read_csv_hash_is_not_a_comment(tmp_path, line):
    with pytest.raises(ValueError, match="malformed"):
        _read_text(tmp_path, f"{CSV_HEADER}\n{line}\n")


def test_read_csv_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="malformed"):
        read_csv(str(path))


@pytest.mark.parametrize("line", [ROW + ",1", ROW.rsplit(",", 1)[0], ROW + "\n" + ROW[:9]])
def test_read_csv_rejects_one_field_too_many_or_few(tmp_path, line):
    with pytest.raises(ValueError, match="malformed"):
        _read_text(tmp_path, f"{CSV_HEADER}\n{line}\n")


# "estimatewait" starts with a phase name, so a reader that cut the
# field to the longest name would accept it.
@pytest.mark.parametrize("phase", ["idle", "Wait", " wait", "estimatewait", ""])
def test_read_csv_rejects_unknown_phase(tmp_path, phase):
    with pytest.raises(ValueError, match="phase"):
        _read_text(tmp_path, f"{CSV_HEADER}\n{ROW.replace('wait', phase)}\n")


def test_read_csv_rejects_non_monotonic_time(tmp_path):
    log = TelemetryLog([_record(1.0), _record(2.0)])
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(ValueError, match="non-monotonic"):
        read_csv(str(path))


def test_read_csv_rejects_repeated_time(tmp_path):
    with pytest.raises(ValueError, match="non-monotonic"):
        _read_text(tmp_path, f"{CSV_HEADER}\n{ROW}\n{ROW}\n")


def test_read_csv_reads_nan_and_inf_tokens(tmp_path):
    line = "0.5,nan,72.0,inf,-inf,NaN,Infinity,wait,3"
    record = _read_text(tmp_path, f"{CSV_HEADER}\n{line}\n")[0]
    assert math.isnan(record.commanded_az) and math.isnan(record.beacon_db)
    assert record.readback_az == math.inf and record.readback_el == -math.inf
    assert record.receiver_volts == math.inf


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, 0.1 + 0.2]
)


@st.composite
def logs(draw):
    t = sorted(draw(st.lists(finite_floats, min_size=1, max_size=30, unique=True)))
    n = len(t)
    floats = [draw(st.lists(finite_floats, min_size=n, max_size=n)) for _ in range(6)]
    phases = draw(st.lists(st.sampled_from(PHASES), min_size=n, max_size=n))
    cycles = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    log = TelemetryLog()
    log.extend(t, *floats, phases, cycles)
    return log


@given(log=logs())
def test_csv_round_trip_bit_exact_property(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("round_trip") / "log.csv"
    write_csv(log, str(path))
    back = read_csv(str(path))
    for name in FIELDS:
        want, got = log.column(name), back.column(name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def test_unknown_phase_rejected():
    with pytest.raises(ValueError, match="phase"):
        TelemetryLog([_record(0.0)._replace(phase="idle")])


def test_extend_equals_appends():
    rows = [_record(i * 0.5, level=float(i), az=180.0 + i) for i in range(5)]
    log = TelemetryLog([rows[0]])
    t = [r.t for r in rows[1:]]
    az = [r.commanded_az for r in rows[1:]]
    db = np.array([r.beacon_db for r in rows[1:]])
    log.extend(t, az, 72.0, az, 72.0, db, 5.0, "wait", 0)
    assert list(log) == rows


def test_extend_rejects_non_monotonic_time():
    log = TelemetryLog([_record(1.0)])
    with pytest.raises(ValueError):
        log.extend([1.0, 2.0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "wait", 0)
    with pytest.raises(ValueError):
        log.extend([2.0, 2.0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "wait", 0)
    assert len(log) == 1


def test_indexing_and_slicing():
    records = [_record(float(i), level=float(i)) for i in range(10)]
    log = TelemetryLog(records)
    assert log[0] == records[0]
    assert log[-1] == records[-1]
    assert list(log[2:8:3]) == records[2:8:3]
    with pytest.raises(IndexError):
        log[10]


def test_column_is_a_read_only_view():
    log = TelemetryLog([_record(0.0, level=1.5), _record(1.0, level=2.5)])
    levels = log.column("beacon_db")
    assert levels.tolist() == [1.5, 2.5]
    with pytest.raises(ValueError):
        levels[0] = 0.0


def _reference_format(value):
    s = repr(float(value))
    if "e" not in s and "E" not in s and "." in s:
        decimals = len(s) - s.index(".") - 1
        if decimals < 6:
            s += "0" * (6 - decimals)
    return s


@given(values=st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1e-5, 1e16, 0.02])))
def test_format_floats_matches_one_at_a_time(values):
    assert format_floats(values) == [_reference_format(v) for v in values]


def test_write_csv_matches_row_wise_reference(tmp_path):
    # Several blocks, runs of repeated values, and -0.0 next to 0.0.
    rng = np.random.default_rng(4)
    n = 10_000
    hold = np.repeat(rng.normal(size=n // 100), 100)
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    phases = ["acquire", "estimate", "move", "wait"]
    records = [
        TelemetryRecord(
            t=i * 0.02,
            commanded_az=float(hold[i]),
            commanded_el=float(zeros[i]),
            readback_az=float(hold[i]) + 1e-7,
            readback_el=72.0,
            beacon_db=float(rng.normal()),
            receiver_volts=float(rng.uniform(0.0, 10.0)),
            phase=phases[(i // 700) % 4],
            cycle_index=i // 2800 - 1,
        )
        for i in range(n)
    ]
    path = tmp_path / "log.csv"
    write_csv(TelemetryLog(records), str(path))
    want = [CSV_HEADER] + [
        ",".join([_reference_format(v) for v in r[:7]] + [r.phase, str(r.cycle_index)])
        for r in records
    ]
    assert path.read_text() == "\n".join(want) + "\n"
