"""Telemetry log tests: ordering, statistics, trajectory, CSV round trip."""

import io
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from steptrack import telemetry
from steptrack.telemetry import (
    CSV_HEADER,
    FIELDS,
    PHASES,
    TelemetryLog,
    beacon_stats,
    extract_trajectory,
    format_floats,
    read_csv,
    time_window,
    write_csv,
)


def _log(t, level=0.0, az=180.0, el=72.0):
    """A log of "wait" rows at times ``t``; the other columns are one value
    or one per row."""
    log = TelemetryLog()
    log.extend(t, az, el, az, el, level, 5.0, "wait", 0)
    return log


def _columns(log):
    return {name: log.column(name).tolist() for name in FIELDS}


WAIT = PHASES.index("wait")
# Every field of one row after the time.
REST = (180.0, 72.0, 180.0, 72.0, 0.0, 5.0, "wait", 0)


def test_append_grows_log():
    log = TelemetryLog()
    log.append(0.0, *REST)
    assert len(log) == 1


def test_append_rejects_equal_time():
    log = _log([1.0])
    with pytest.raises(ValueError):
        log.append(1.0, *REST)


def test_append_rejects_backward_time():
    log = _log([2.0])
    with pytest.raises(ValueError):
        log.append(1.5, *REST)


def test_append_preserves_order():
    log = TelemetryLog()
    for i in range(100):
        log.append(i * 0.02, 180.0 + i, 72.0, 180.0 - i, 72.5, i / 3, 5.0, PHASES[i % 4], i)
    assert _columns(log) == {
        "t": [i * 0.02 for i in range(100)],
        "commanded_az": [180.0 + i for i in range(100)],
        "commanded_el": [72.0] * 100,
        "readback_az": [180.0 - i for i in range(100)],
        "readback_el": [72.5] * 100,
        "beacon_db": [i / 3 for i in range(100)],
        "receiver_volts": [5.0] * 100,
        "phase": [i % 4 for i in range(100)],
        "cycle_index": list(range(100)),
    }


def test_stats_constant_level():
    log = _log(range(10), level=2.5)
    stats = beacon_stats(log)
    assert stats == (2.5, 0.0, 2.5, 2.5)


def test_stats_two_levels():
    log = _log([0.0, 1.0], level=[1.0, 3.0])
    stats = beacon_stats(log)
    assert stats.mean == 2.0
    assert stats.stddev == 1.0  # population, divide by N
    assert (stats.minimum, stats.maximum) == (1.0, 3.0)


def test_stats_full_window_equals_whole_log():
    rng = np.random.default_rng(2)
    log = _log(range(50), level=rng.normal(size=50))
    assert beacon_stats(log) == beacon_stats(log, 0.0, 49.0)


def test_stats_empty_window_rejected():
    log = _log([0.0])
    with pytest.raises(ValueError):
        beacon_stats(log, 10.0, 20.0)


def test_stats_pooled_windows_match_oracle():
    rng = np.random.default_rng(8)
    levels = rng.normal(2.0, 1.3, 60)
    log = _log(range(60), level=levels)
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
    log = _log(range(10))
    inside = [
        i for i in range(10) if (t0 is None or i >= t0) and (t1 is None or i <= t1)
    ]
    assert list(range(10))[time_window(log, t0, t1)] == inside


def test_trajectory_decimation_one_keeps_all():
    az, el = extract_trajectory(_log(range(10), az=np.arange(10.0)), 1)
    assert (len(az), len(el)) == (10, 10)


def test_trajectory_decimation_equal_length_single_point():
    az, el = extract_trajectory(_log(range(10), az=np.arange(10.0)), 10)
    assert (az.tolist(), el.tolist()) == ([0.0], [72.0])


def test_trajectory_stride():
    az, _ = extract_trajectory(_log(range(10), az=np.arange(10.0)), 3)
    assert az.tolist() == [0.0, 3.0, 6.0, 9.0]


def test_trajectory_rejects_zero_decimation():
    with pytest.raises(ValueError):
        extract_trajectory(_log([0.0]), 0)


def test_format_float_pads_to_six_decimals():
    assert format_floats([0.02, 5.0]) == ["0.020000", "5.000000"]


def test_format_float_keeps_full_precision():
    value = 0.1 + 0.2  # 0.30000000000000004
    assert float(format_floats([value])[0]) == value


def test_csv_round_trip_bit_exact(tmp_path):
    # deliberately awkward values: accumulated 0.02 steps, thirds, negatives
    t = []
    acc = 0.0
    for _ in range(200):
        t.append(acc)
        acc += 0.02
    i = np.arange(200)
    log = TelemetryLog()
    log.extend(
        t,
        180.0 + i / 3.0,
        72.0 - i / 7.0,
        i * 360.0 / 65536.0,
        5.0 + i * 0.013,
        -24.0 + i * 0.1500001,
        np.minimum(10.0, i * 0.05),
        np.where(i % 3, "acquire", "wait"),
        i // 50,
    )
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    back = read_csv(str(path))
    assert len(back) == len(log)
    for name in FIELDS:  # bit-exact floats, exact phases and ints
        assert back.column(name).tobytes() == log.column(name).tobytes(), name


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
    values = [0.5, 180.25, 72.0, 180.0, -72.5, 5.5, 6.0, WAIT, 3]
    assert _columns(log) == {name: [v] for name, v in zip(FIELDS, values)}


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


def test_read_csv_error_names_the_file_line(tmp_path):
    # numpy counts only the non-blank lines of its input: x,1 was its row 3.
    text = "\n".join([CSV_HEADER, ROW, "", ROW.replace("0.5,", "0.52,", 1), "x,1"]) + "\n"
    with pytest.raises(ValueError, match=r"^malformed telemetry line 5: 'x,1': .* 2 were found"):
        _read_text(tmp_path, text)


def test_read_csv_unknown_phase_names_the_file_line(tmp_path):
    bad = ROW.replace("0.5,", "0.52,", 1).replace("wait", "idle")
    text = "\n".join([CSV_HEADER, ROW, bad]) + "\n"
    message = re.escape(f"malformed telemetry line 3: {bad!r}: unknown phase 'idle', expected")
    with pytest.raises(ValueError, match="^" + message):
        _read_text(tmp_path, text)


def test_read_csv_time_out_of_order_names_the_file_line(tmp_path):
    later, bad = (ROW.replace("0.5,", f"{t},", 1) for t in (0.6, 0.1))
    text = "\n".join([CSV_HEADER, ROW, later, bad]) + "\n"
    message = re.escape(f"malformed telemetry line 4: {bad!r}: non-monotonic time")
    with pytest.raises(ValueError, match="^" + message + ".* 0.1 after 0.6$"):
        _read_text(tmp_path, text)


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
    log = _log([1.0, 2.0])
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
    log = _read_text(tmp_path, f"{CSV_HEADER}\n{line}\n")
    row = {name: value for name, (value,) in _columns(log).items()}
    assert math.isnan(row["commanded_az"]) and math.isnan(row["beacon_db"])
    assert row["readback_az"] == math.inf and row["readback_el"] == -math.inf
    assert row["receiver_volts"] == math.inf


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
    # One name and a sequence of names fail alike, naming the first unknown.
    message = re.escape(f"unknown phase 'idle', expected one of {PHASES}")
    with pytest.raises(ValueError, match=message):
        TelemetryLog().append(0.0, *REST[:-2], "idle", 0)
    with pytest.raises(ValueError, match=message):
        _log([0.0, 1.0, 2.0]).extend([3.0, 4.0], *REST[:-2], ["wait", "idle"], 0)


def test_extend_equals_appends():
    rows = [(i * 0.5, 180.0 + i, 72.0, 180.0 + i, 72.0, float(i), 5.0, "wait", 0)
            for i in range(5)]
    appended = TelemetryLog()
    for row in rows:
        appended.append(*row)
    log = TelemetryLog()
    log.append(*rows[0])
    t, az, _, _, _, db, _, _, _ = zip(*rows[1:])
    log.extend(t, az, 72.0, az, 72.0, np.array(db), 5.0, "wait", 0)
    assert _columns(log) == _columns(appended)
    assert log.column("t").tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_extend_rejects_non_monotonic_time():
    log = _log([1.0])
    with pytest.raises(ValueError):
        log.extend([1.0, 2.0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "wait", 0)
    with pytest.raises(ValueError):
        log.extend([2.0, 2.0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "wait", 0)
    assert len(log) == 1


def test_column_is_a_read_only_view():
    log = _log([0.0, 1.0], level=[1.5, 2.5])
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


# Values with few decimals, which take the '%.6f' path when under 1e9:
# rounded to 0-8 decimals at magnitudes from 1e-5 to 1e18, and the 24 h
# run's time grid.
few_decimals = st.builds(
    lambda mantissa, exponent, decimals: float(np.round(mantissa * 10.0**exponent, decimals)),
    st.floats(-10.0, 10.0),
    st.integers(-5, 17),
    st.integers(0, 8),
) | st.builds(lambda i: i * 0.02, st.integers(0, 4_320_000))
# The bounds of the '%.6f' path and their neighbours.
EDGES = [
    1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), 0.000123, 0.0001234,
    float(np.nextafter(1e9, 0)), 1e9, float(np.nextafter(1e9, 2e9)), 999999999.5,
    1000000000.5, 1e16, float(np.nextafter(1e16, 0)), 0.0, -0.0, math.nan,
    math.inf, -math.inf,
]


@given(
    values=st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1e-5, 1e16, 0.02]))
    | st.lists(few_decimals)
)
@example(values=EDGES)
@example(values=[-v for v in EDGES])
@example(values=[0.02, 5.0, -0.0])
@example(values=[0.1 + 0.2, math.nan])
def test_format_floats_matches_one_at_a_time(values):
    assert format_floats(values) == [_reference_format(v) for v in values]


def test_write_csv_matches_row_wise_reference(tmp_path):
    # Several blocks, runs of repeated values, and -0.0 next to 0.0.
    rng = np.random.default_rng(4)
    n = 10_000
    hold = np.repeat(rng.normal(size=n // 100), 100)
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    rows = [
        (
            i * 0.02,
            float(hold[i]),
            float(zeros[i]),
            float(hold[i]) + 1e-7,
            72.0,
            float(rng.normal()),
            float(rng.uniform(0.0, 10.0)),
            PHASES[(i // 700) % 4],
            i // 2800 - 1,
        )
        for i in range(n)
    ]
    log = TelemetryLog()
    log.extend(*zip(*rows))
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    want = [CSV_HEADER] + [
        ",".join([_reference_format(v) for v in r[:7]] + [r[7], str(r[8])]) for r in rows
    ]
    assert path.read_text() == "\n".join(want) + "\n"


def _blocks_log(n=3 * 4096 + 100):
    """A log over several write blocks, with runs, -0.0 and a part-filled last block."""
    rng = np.random.default_rng(9)
    i = np.arange(n)
    log = TelemetryLog()
    log.extend(
        i * 0.02,
        np.repeat(rng.normal(180.0, 1.0, n // 500 + 1), 500)[:n],
        np.where(i % 5 == 0, -0.0, 0.0),
        np.round(rng.uniform(170.0, 190.0, n) / 0.005) * 0.005,
        72.0,
        rng.normal(5.0, 0.3, n),
        np.minimum(10.0, rng.uniform(8.0, 12.0, n)),
        np.array(PHASES)[(i // 700) % 4],
        i // 2800,
    )
    return log


def _cols(log):
    return [log.column(name) for name in FIELDS]


def _force_writers(monkeypatch, cpus):
    monkeypatch.setattr(telemetry, "_MIN_FORK_ROWS", 1)
    monkeypatch.setattr(telemetry, "_available_cpus", lambda: cpus)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_writers_match_one_process(tmp_path, monkeypatch, cpus):
    log = _blocks_log()
    one = tmp_path / "one.csv"
    assert len(telemetry._row_ranges(_cols(log))) == 1  # below the fork threshold
    write_csv(log, str(one))
    _force_writers(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    many = tmp_path / "many.csv"
    write_csv(log, str(many))
    assert len(forks) == cpus - 1
    assert many.read_bytes() == one.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["many.csv", "one.csv"]


def test_row_ranges_share_out_the_values_to_format(monkeypatch):
    _force_writers(monkeypatch, 3)
    # The level holds for the first half and varies row by row after it,
    # so a row there costs two values to format (time and level), not one.
    n = 12 * 4096 + 7
    i = np.arange(n)
    log = _log(i * 0.02, level=np.where(i < n // 2, 5.0, i * 0.001))
    assert telemetry._row_ranges(_cols(log)) == [
        (0, 7 * 4096), (7 * 4096, 10 * 4096), (10 * 4096, n)
    ]
    assert telemetry._row_ranges(_cols(TelemetryLog())) == [(0, 0)]
    monkeypatch.delattr(os, "fork")
    assert telemetry._row_ranges(_cols(log)) == [(0, n)]


def test_no_writers_without_temp_space(tmp_path, monkeypatch):
    log = _blocks_log()
    one = tmp_path / "one.csv"
    write_csv(log, str(one))
    _force_writers(monkeypatch, 3)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without temp space"))
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    assert path.read_bytes() == one.read_bytes()


def _fail_rows(monkeypatch, failing):
    """Make ``_write_rows`` raise for the ranges whose start ``failing`` picks."""
    real = telemetry._write_rows

    def write_rows(cols, lo, hi, out):
        if failing(lo):
            raise RuntimeError(f"cannot format rows from {lo}")
        real(cols, lo, hi, out)

    monkeypatch.setattr(telemetry, "_write_rows", write_rows)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_writer_raises_and_leaves_nothing(tmp_path, monkeypatch, capfd):
    _force_writers(monkeypatch, 3)
    _fail_rows(monkeypatch, lambda lo: lo > 0)
    path = tmp_path / "log.csv"
    with pytest.raises(OSError, match="exited with code 1"):
        write_csv(_blocks_log(), str(path))
    _assert_no_child_left()
    assert os.listdir(tmp_path) == ["log.csv"]
    assert "RuntimeError: cannot format rows from" in capfd.readouterr().err


def test_failing_parent_kills_and_reaps_writers(tmp_path, monkeypatch):
    _force_writers(monkeypatch, 3)
    _fail_rows(monkeypatch, lambda lo: lo == 0)
    with pytest.raises(RuntimeError, match="rows from 0"):
        write_csv(_blocks_log(), str(tmp_path / "log.csv"))
    _assert_no_child_left()
    assert os.listdir(tmp_path) == ["log.csv"]


def test_write_csv_to_a_device_forks_no_writer(monkeypatch):
    # /dev/null sits in a writable directory when run as root, but a temp
    # file there would take RAM, so only a regular output gets writers.
    _force_writers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a device"))
    monkeypatch.setattr(
        telemetry.tempfile, "TemporaryFile", lambda **kw: pytest.fail("made a temp file")
    )
    write_csv(_blocks_log(), os.devnull)


def test_extend_checks_order_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = _log([-1.7e308, 1.7e308])
        with pytest.raises(ValueError, match="non-monotonic"):
            _log([1.7e308, -1.7e308])
    assert log.column("t").tolist() == [-1.7e308, 1.7e308]


# -- forked readers ------------------------------------------------------------------
# Small blocks make a short file span many blocks, and so many readers.

def _force_readers(monkeypatch, cpus, block_bytes=256):
    _force_writers(monkeypatch, cpus)
    monkeypatch.setattr(telemetry, "_BLOCK_BYTES", block_bytes)


def _spy_in_order_reads(monkeypatch):
    """Count this process's reads from the first line: one for its range,
    and one more if it had to read the whole file again in order."""
    starts = []
    real = telemetry._read_blocks

    def read_blocks(fh, lo, hi, line_no, log):
        starts.extend([line_no] * (line_no == 2))
        real(fh, lo, hi, line_no, log)

    monkeypatch.setattr(telemetry, "_read_blocks", read_blocks)
    return starts


def _same_columns(a, b):
    return all(a.column(name).tobytes() == b.column(name).tobytes() for name in FIELDS)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_forked_readers_match_one_process(tmp_path, monkeypatch, cpus):
    path = tmp_path / "log.csv"
    log = _blocks_log()
    write_csv(log, str(path))
    _force_readers(monkeypatch, cpus, block_bytes=1 << 14)
    forks = _count_forks(monkeypatch)
    starts = _spy_in_order_reads(monkeypatch)
    back = read_csv(str(path))
    assert len(forks) == cpus - 1
    assert len(starts) == 1
    assert len(back) == len(log)
    assert _same_columns(back, log)
    _assert_no_child_left()


def _rows_text(n):
    return [
        f"{i * 0.02:.6f},180.0,72.{i:06d},180.0,72.0,{5 + i / 7!r},6.0,{PHASES[i % 4]},{i // 9}"
        for i in range(n)
    ]


def _read_outcome(path):
    """What ``read_csv`` gives: its columns, or the type and text of its error."""
    try:
        return _columns(read_csv(str(path)))
    except ValueError as exc:
        return type(exc), str(exc)


def _time_repeated(rows, at):
    """The row at ``at`` with the time of the row before it: out of order
    only against that row, so across a range boundary no reader sees it."""
    return rows[at - 1].split(",", 1)[0] + rows[at][rows[at].index(","):]


FAULTS = {
    "malformed": lambda rows, at: rows[at].replace(",", ";", 1),
    "phase": lambda rows, at: rows[at].replace(f",{PHASES[at % 4]},", ",idle,"),
    "time": _time_repeated,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_read_errors_do_not_depend_on_the_readers(tmp_path, monkeypatch, fault):
    # The fault on each line in turn: so in the last range, and on both
    # sides of every range boundary, for one, two and three readers.
    n = 30
    path = tmp_path / "log.csv"
    for at in range(1, n):
        rows = _rows_text(n)
        rows[at] = FAULTS[fault](rows, at)
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        outcomes = []
        for cpus in (1, 2, 3):
            with monkeypatch.context() as patch:
                _force_readers(patch, cpus, block_bytes=128)
                outcomes.append(_read_outcome(path))
            _assert_no_child_left()
        assert outcomes[0][0] is ValueError, (at, outcomes[0])
        assert f"malformed telemetry line {at + 2}: " in outcomes[0][1], (at, outcomes[0])
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], at


def test_first_error_wins_over_a_later_range(tmp_path, monkeypatch):
    rows = _rows_text(30)
    rows[3] = FAULTS["phase"](rows, 3)
    rows[27] = FAULTS["malformed"](rows, 27)
    path = tmp_path / "log.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    _force_readers(monkeypatch, 3, block_bytes=128)
    with pytest.raises(ValueError, match="unknown phase 'idle'"):
        read_csv(str(path))
    _assert_no_child_left()


@pytest.mark.parametrize("block_bytes", [64, 100, 129, 200])
@pytest.mark.parametrize("cpus", [1, 3])
def test_blank_lines_and_crlf_at_block_edges(tmp_path, monkeypatch, block_bytes, cpus):
    rows = _rows_text(40)
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    want = _columns(read_csv(str(plain)))
    lines = [CSV_HEADER]
    for i, row in enumerate(rows):
        lines += [row] + [""] * (i % 3)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n\r\n")
    _force_readers(monkeypatch, cpus, block_bytes)
    starts = _spy_in_order_reads(monkeypatch)
    assert _columns(read_csv(str(crlf))) == want
    assert len(starts) == 1  # the blank lines' gaps were closed, not read again


def test_bare_cr_lines_read_like_lf(tmp_path, monkeypatch):
    rows = _rows_text(40)
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    cr = tmp_path / "cr.csv"
    cr.write_bytes("\r".join([CSV_HEADER, *rows, ""]).encode())
    _force_readers(monkeypatch, 3, block_bytes=128)
    assert _columns(read_csv(str(cr))) == _columns(read_csv(str(plain)))


def test_fifo_is_read_in_one_process(tmp_path, monkeypatch):
    text = "\n".join([CSV_HEADER, *_rows_text(40)]) + "\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text)
    want = _columns(read_csv(str(plain)))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
    writer.start()
    _force_readers(monkeypatch, 3, block_bytes=128)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a pipe"))
    assert _columns(read_csv(str(fifo))) == want
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_failing_reader_raises_and_leaves_no_child(tmp_path, monkeypatch, capfd):
    path = tmp_path / "log.csv"
    write_csv(_blocks_log(), str(path))
    _force_readers(monkeypatch, 3, block_bytes=1 << 14)
    real = telemetry._read_blocks

    def read_blocks(fh, lo, hi, line_no, log):
        if line_no > 2:
            raise RuntimeError(f"cannot parse from line {line_no}")
        real(fh, lo, hi, line_no, log)

    monkeypatch.setattr(telemetry, "_read_blocks", read_blocks)
    with pytest.raises(OSError, match="CSV reader process .* exited with code 1"):
        read_csv(str(path))
    _assert_no_child_left()
    assert "RuntimeError: cannot parse from line" in capfd.readouterr().err


@given(text=st.text(alphabet="a,\r\n", max_size=40))
def test_line_count_splits_like_text_files(text):
    lines = io.StringIO(text, newline="").readlines()
    assert telemetry._line_count(text.encode()) == len(lines)
