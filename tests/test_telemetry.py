"""Telemetry log tests: ordering, statistics, trajectory, CSV round trip."""

import ast
import io
import math
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DenseTelemetryLog, read_csv_rows
from steptrack import telemetry
from steptrack.scenario import load_scenario, resolve_scenario_path
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
from steptrack.tracker import run_scenario


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


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200_000) | st.sampled_from([1 << 14, (1 << 14) + 1, 1 << 17]),
    loc=st.sampled_from([0.0, 5.0, -24.0, 1e6]),
    scale=st.sampled_from([1e-9, 0.2, 3.0, 1e3]),
    leaf=st.sampled_from([128, 1000, 1 << 14]),
)
@settings(max_examples=60)
def test_stats_equal_numpy_bit_for_bit(seed, n, loc, scale, leaf):
    # The blocked sum of squares follows numpy's pairwise tree; a numpy
    # that sums in another order fails here, not in the goldens.
    levels = np.random.default_rng(seed).normal(loc, scale, n)
    with mock.patch.object(telemetry, "_SUM_LEAF", leaf):
        stats = beacon_stats(_log(np.arange(n, dtype=float), level=levels))
    assert stats == (levels.mean(), levels.std(), levels.min(), levels.max())


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


def test_read_csv_names_a_header_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\xff\n")
    with pytest.raises(ValueError, match=r"^unrecognized telemetry header: .*\\udcff'$"):
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


CODES = [3, 0, 1, 2, 3]


@pytest.mark.parametrize(
    "codes", [CODES, np.array(CODES), np.array(CODES, np.int8), np.array(CODES, np.uint8)]
)
def test_extend_takes_phase_codes(codes):
    by_name = TelemetryLog()
    by_name.extend(np.arange(5.0), *REST[:-2], [PHASES[c] for c in CODES], 0)
    by_code = TelemetryLog()
    by_code.extend(np.arange(5.0), *REST[:-2], codes, 0)
    assert _columns(by_code) == _columns(by_name)
    # A single code or name holds for the whole block.
    by_code.extend([5.0, 6.0], *REST[:-2], WAIT, 0)
    by_code.extend([7.0, 8.0], *REST[:-2], "move", 0)
    assert by_code.column("phase").tolist()[5:] == [WAIT, WAIT, 2, 2]


@pytest.mark.parametrize("rows", [2, 5_000])
@pytest.mark.parametrize(
    "bad",
    [1.5, 2.5, 2.7, 1e19, -1e19, math.nan, math.inf, 2**63, 2**64 - 1,
     pytest.param(np.uint64(2**63), id="uint64")],
)
def test_extend_rejects_a_cycle_index_that_is_not_an_int64(rows, bad):
    # Blocks that wait in the tail and blocks encoded at once are checked
    # alike, for one value or one per row, and leave the log as it was.
    # numpy holds an integer of 2**63 or more as uint64, which must not
    # wrap, or next to a 0 as float64; the message gives it as numpy holds it.
    log = _log([0.0])
    t = 1.0 + np.arange(rows)
    for cycle in (bad, np.full(rows, bad), [0] * (rows - 1) + [bad]):
        got = np.asarray(cycle).flat[-1]
        message = re.escape(f"cycle_index must hold int64 integers, got {got}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            log.extend(t, *REST[:-1], cycle)
    assert len(log) == 1
    log.extend(t, *REST[:-1], [0.0] * (rows - 1) + [-3.0])
    assert log.column("cycle_index").tolist() == [0] * rows + [-3]


@pytest.mark.parametrize("bad", [-1, 4, 127])
def test_out_of_range_phase_code_rejected(bad):
    message = re.escape(f"unknown phase code {bad}, expected 0 to 3")
    log = _log([0.0])
    for phase in (bad, [WAIT, bad], np.array([bad, WAIT], np.int64)):
        with pytest.raises(ValueError, match=message):
            log.extend([1.0, 2.0], *REST[:-2], phase, 0)
    assert len(log) == 1


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extend_rejects_non_finite_time(bad):
    for t in ([bad], [0.0, bad]):
        log = TelemetryLog()
        with pytest.raises(ValueError, match=f"^non-finite time {bad}$"):
            log.extend(t, *REST)
        assert len(log) == 0


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_read_csv_names_the_line_of_a_non_finite_time(tmp_path, bad):
    text = "\n".join([CSV_HEADER, f"{bad},1,1,1,1,1,1,wait,0", ROW]) + "\n"
    with pytest.raises(ValueError, match=f"^malformed telemetry line 2: .*non-finite time {bad}$"):
        _read_text(tmp_path, text)


def test_column_is_a_read_only_view():
    log = _log([0.0, 1.0], level=[1.5, 2.5])
    levels = log.column("beacon_db")
    assert levels.tolist() == [1.5, 2.5]
    with pytest.raises(ValueError):
        levels[0] = 0.0


def test_only_the_log_touches_its_private_state():
    # Outside ``TelemetryLog``, an attribute ``x._name`` in telemetry.py is
    # ``self._name`` or a module's, such as ``os._exit``: no function reads
    # or writes a log's private state.
    tree = ast.parse(Path(telemetry.__file__).read_text())
    names = {"self"} | {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    (log_class,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "TelemetryLog"
    ]
    inside = set(map(id, ast.walk(log_class)))
    pokes = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and id(node) not in inside
        and not (isinstance(node.value, ast.Name) and node.value.id in names)
    ]
    assert pokes == []


# -- the run layout ------------------------------------------------------------------

# Step values that equal each other but differ in bits: -0.0 and 0.0, and
# NaNs of four payloads (quiet, negative, with a payload, signalling).
NANS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
    dtype=np.uint64,
).view(np.float64)
step_floats = st.sampled_from([0.0, -0.0, 1.5, -2.25, 180.0, *NANS])


@st.composite
def step_blocks(draw):
    """``extend`` arguments of a few blocks: each step column is one value
    for the block or one per row, drawn from few values so runs repeat."""
    blocks, start = [], 0.0
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 12))

        def column(values):
            return draw(values | st.lists(values, min_size=k, max_size=k))

        t = start + 0.5 * np.arange(k)
        start += 0.5 * k + draw(st.sampled_from([0.0, 0.25]))
        floats = [column(step_floats) for _ in range(4)]
        dense = [column(st.floats(-30.0, 10.0)) for _ in range(2)]
        blocks.append((t, *floats, *dense, column(st.sampled_from(PHASES)),
                       column(st.integers(-1, 2))))
    return blocks


def _equal_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(blocks=step_blocks(), reads=st.lists(st.booleans()))
def test_run_layout_equals_the_dense_log(tmp_path_factory, blocks, reads):
    # Each block's step columns are encoded as runs as it goes in; a read
    # between blocks sees every row so far.
    log, dense = TelemetryLog(), DenseTelemetryLog()
    for i, block in enumerate(blocks):
        t, cmd_az, cmd_el, rb_az, rb_el, db, volts, phase, cycle = block
        log.extend(t, cmd_az, cmd_el, rb_az, rb_el, db, volts, phase, cycle)
        dense.extend(t, cmd_az, cmd_el, rb_az, rb_el, db, volts, phase, cycle)
        if i < len(reads) and reads[i] or i == len(blocks) - 1:
            for name in FIELDS:
                assert _equal_bits(log.column(name), dense.column(name)), name
    for name in FIELDS[1:5] + FIELDS[7:]:
        starts, values = log.runs(name)
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < len(log)
        bits = values.view(f"u{values.itemsize}")
        assert (bits[1:] != bits[:-1]).all(), name
    path = tmp_path_factory.mktemp("runs") / "log.csv"
    write_csv(log, str(path))
    back = read_csv(str(path))
    for name in FIELDS:
        # The CSV writes every NaN as "nan", which reads back as np.nan.
        want = dense.column(name)
        if want.dtype == np.float64:
            want = np.where(np.isnan(want), np.nan, want)
        assert _equal_bits(back.column(name), want), name


@given(
    blocks=step_blocks(),
    start=st.none() | st.integers(-100, 100),
    stop=st.none() | st.integers(-100, 100),
    step=st.none() | st.integers(1, 12),
)
def test_column_rows_equal_the_full_expansion(blocks, start, stop, step):
    # A slice of a column's rows equals those rows of the same log stored
    # row by row.
    log, dense = TelemetryLog(), DenseTelemetryLog()
    for block in blocks:
        log.extend(*block)
        dense.extend(*block)
    rows = slice(start, stop, step)
    for name in FIELDS:
        assert _equal_bits(log.column(name, rows), dense.column(name)[rows]), name
    if step is not None:
        az, el = extract_trajectory(log, step)
        assert _equal_bits(az, dense.column("readback_az")[::step])
        assert _equal_bits(el, dense.column("readback_el")[::step])


def test_window_rows_expand_no_whole_step_column():
    # A window or every n-th row of a step column is cut from its runs:
    # reading them takes a small part of the memory of the whole column.
    n = 100_000
    log = TelemetryLog()
    log.extend(np.arange(float(n)), np.arange(float(n)) // 7, *REST[1:])
    rows = slice(20, 9_000, 50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = log.column("commanded_az", rows)
        extract_trajectory(log, 50)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got.tolist() == [float(row // 7) for row in range(20, 9_000, 50)]
    assert peak < 8 * n // 4
    with pytest.raises(ValueError, match="row step must be positive"):
        log.column("commanded_az", slice(None, None, -1))


def test_scalar_step_values_take_no_memory_per_row():
    # A block of resting rows adds one run to each step column: the
    # memory it takes is that of the three row-by-row columns.
    n = 1_000_000
    t, level = np.arange(n) * 0.02, np.zeros(n)
    log = TelemetryLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log.extend(t, 180.0, 72.0, 180.0, 72.0, level, 5.0, "wait", 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n + 64 * 1024
    assert [len(log.runs(name)[0]) for name in FIELDS[1:5] + FIELDS[7:]] == [1] * 6


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
    forks = _count_forks(monkeypatch)
    write_csv(log, str(one))
    assert not forks  # below the fork threshold
    _force_writers(monkeypatch, cpus)
    many = tmp_path / "many.csv"
    write_csv(log, str(many))
    assert len(forks) == cpus - 1
    assert many.read_bytes() == one.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["many.csv", "one.csv"]


def test_writers_share_out_the_blocks_by_count(tmp_path, monkeypatch):
    _force_writers(monkeypatch, 3)
    # The writers run in this process, so each range they write is seen.
    monkeypatch.setattr(
        telemetry, "_fork_each", lambda work, count, what: [work(i) for i in range(count)]
    )
    ranges, real = [], telemetry._write_rows
    monkeypatch.setattr(
        telemetry, "_write_rows", lambda *args: ranges.append(args[1:3]) or real(*args)
    )
    # The level holds for the first half and varies row by row after it:
    # the 13 blocks are shared out by count, not by the values to format.
    n = 12 * 4096 + 7
    i = np.arange(n)
    log = _log(i * 0.02, level=np.where(i < n // 2, 5.0, i * 0.001))
    many, one = tmp_path / "many.csv", tmp_path / "one.csv"
    write_csv(log, str(many))
    assert ranges == [(0, 4 * 4096), (4 * 4096, 8 * 4096), (8 * 4096, n)]
    # An empty log is one empty range: the header, and no writer to fork.
    ranges.clear()
    write_csv(TelemetryLog(), str(one))
    assert ranges == [(0, 0)]
    assert one.read_text() == CSV_HEADER + "\n"
    # Without os.fork one process writes it all, to the same bytes.
    monkeypatch.delattr(os, "fork")
    ranges.clear()
    write_csv(log, str(one))
    assert ranges == [(0, n)]
    assert one.read_bytes() == many.read_bytes()


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


@pytest.mark.parametrize("blank", ["\r\r", "\n"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_blank_lines_count_in_the_line_numbers_of_later_blocks(tmp_path, monkeypatch, cpus, blank):
    # The first line ends in a blank one, so the bad line is file line 6.
    rows = _rows_text(12)
    rows[0] += blank
    rows[3] = FAULTS["malformed"](rows, 3)
    path = tmp_path / "log.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    _force_readers(monkeypatch, cpus, block_bytes=128)
    want = _outcome(read_csv_rows, path)
    assert want[0] is ValueError and "malformed telemetry line 6: " in want[1]
    assert _outcome(read_csv, path) == want


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
    assert telemetry._lines(text.encode()) == [line.rstrip("\r\n") for line in lines]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("at", [1, 25])  # in the first block, in a later one
@pytest.mark.parametrize("idle_before", [False, True])
def test_a_byte_not_in_utf8_fails_its_line_in_file_order(
    tmp_path, monkeypatch, cpus, at, idle_before
):
    # A bad byte in the receiver volts of row ``at``, alone or after a row
    # with an unknown phase in the same block: the first bad line is named.
    rows = _rows_text(30)
    if idle_before:
        rows[at - 1] = FAULTS["phase"](rows, at - 1)
    data = "\n".join([CSV_HEADER, *rows]).encode() + b"\n"
    bad = rows[at].replace(",6.0,", ",6.\xff,").encode("latin-1")  # a lone 0xff byte
    path = tmp_path / "log.csv"
    path.write_bytes(data.replace(rows[at].encode(), bad))
    _force_readers(monkeypatch, cpus, block_bytes=256)
    with pytest.raises(ValueError) as raised:
        read_csv(str(path))
    _assert_no_child_left()
    if idle_before:
        assert str(raised.value).startswith(f"malformed telemetry line {at + 1}: ")
        assert "unknown phase 'idle'" in str(raised.value)
    else:
        assert str(raised.value).startswith(f"malformed telemetry line {at + 2}: ")
        assert "could not convert string '6.\\udcff' to float64" in str(raised.value)


# -- parsing by runs -----------------------------------------------------------------
# A block is parsed by runs: the step fields of a run's head are converted,
# and the rows after it take its values while their step text stays the
# same. These CSVs hold long runs, so most rows are not heads, and each
# puts one fault on a row inside a run.

STEP_TEXTS = {  # texts a step field's runs take
    "commanded_az": ("180.0", "179.5"),
    "commanded_el": ("72.0", "-0.0"),
    "readback_az": ("180.000000", "1.8e2"),
    "readback_el": ("72.000000", "nan"),
    "phase": PHASES,
    "cycle_index": ("0", "3"),
}
# Another text of the same value.
OTHER_FORM = {"180.0": "180.000000", "179.5": "179.50", "72.0": "7.2e1", "-0.0": "-0.000",
              "180.000000": "180.0", "1.8e2": "180", "72.000000": "72", "nan": "NaN",
              "0": "+0", "3": "03"}
STEP_FAULTS = {
    "nul": lambda text: text + "\0",
    "leading space": lambda text: " " + text,
    "trailing space": lambda text: text + " ",
    "junk past the width": lambda text: text + "0" * 40 + "x",
    "zeros past the width": lambda text: text + "0" * 40,
    "other form": lambda text: OTHER_FORM.get(text, text),
}
ROW_FAULTS = {
    "8 fields": lambda fields: fields[:-1],
    "10 fields": lambda fields: fields + ["0"],
}


@st.composite
def run_csvs(draw):
    """The rows of a CSV, as lists of field texts, whose step fields hold
    over runs of 2-8 rows; then a fault on one row that is not a run head."""
    rows, inside, run = [], [], 0
    while len(rows) < 12 or draw(st.booleans()) and len(rows) < 40:
        steps = [draw(st.sampled_from(STEP_TEXTS[name])) for name in STEP_TEXTS]
        steps[-1] = str(run)  # a new cycle index: neighbouring runs differ
        for j in range(draw(st.integers(2, 8))):
            i = len(rows)
            rows.append([f"{i * 0.02:.6f}", *steps[:4], repr(5 + i / 7), "6.0", *steps[4:]])
            inside += [i] * (j > 0)
        run += 1
    at = draw(st.sampled_from(inside))
    fault = draw(st.sampled_from(sorted(STEP_FAULTS) + sorted(ROW_FAULTS)))
    if fault in ROW_FAULTS:
        rows[at] = ROW_FAULTS[fault](rows[at])
    else:
        field = FIELDS.index(draw(st.sampled_from(sorted(STEP_TEXTS))))
        rows[at][field] = STEP_FAULTS[fault](rows[at][field])
    return [",".join(row) for row in rows]


def _outcome(read, path):
    """What a reader gives: each column's dtype and bytes, or the type and text of its error."""
    try:
        log = read(str(path))
    except ValueError as exc:
        return type(exc), str(exc)
    return {name: (log.column(name).dtype.str, log.column(name).tobytes()) for name in FIELDS}


def _assert_read_as_row_by_row(path):
    with mock.patch.object(telemetry, "_BLOCK_BYTES", 128):
        want = _outcome(read_csv_rows, path)
        for cpus in (1, 2, 3):
            with mock.patch.multiple(telemetry, _MIN_FORK_ROWS=1, _available_cpus=lambda: cpus):
                assert _outcome(read_csv, path) == want, cpus
            _assert_no_child_left()


@settings(max_examples=60)
@given(rows=run_csvs())
def test_faults_inside_a_run_read_as_row_by_row(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("runs") / "log.csv"
    path.write_bytes("\n".join([CSV_HEADER, *rows, ""]).encode())
    _assert_read_as_row_by_row(path)


@settings(max_examples=30)
@given(rows=run_csvs(), end=st.sampled_from(["\r\n", "\r"]), blank=st.sets(st.integers(0, 40)))
def test_other_line_ends_read_as_row_by_row(tmp_path_factory, rows, end, blank):
    # CRLF or bare-CR line ends, and blank lines after some rows.
    path = tmp_path_factory.mktemp("ends") / "log.csv"
    rows = [row + end * (i in blank) for i, row in enumerate(rows)]
    path.write_bytes(end.join([CSV_HEADER, *rows, ""]).encode())
    _assert_read_as_row_by_row(path)


@pytest.mark.parametrize("fault", ["nul", "junk past the width"])
@pytest.mark.parametrize("name", [name for name in sorted(STEP_TEXTS) if name != "phase"])
def test_nul_and_junk_past_the_width_hide_from_the_step_text(tmp_path, name, fault):
    # A row with the fault keeps the step text of a good row: the same
    # text, or the same first _STEP_BYTES of a text that fills them. So a
    # parse that took a run head's values for every row with its text
    # would read a bad file; the parse by runs converts such a row on its
    # own. (The row-by-row parse drops a NUL after a phase name, and cuts
    # a long one to a name that is no phase.)
    good = ["0.020000", *(STEP_TEXTS[n][0] for n in FIELDS[1:5]), "5.5", "6.0", "wait", "0"]
    if fault != "nul":
        good[FIELDS.index(name)] = STEP_FAULTS["zeros past the width"](good[FIELDS.index(name)])
    bad = list(good)
    bad[FIELDS.index(name)] = STEP_FAULTS[fault](STEP_TEXTS[name][0])
    texts = np.loadtxt([",".join(good), ",".join(bad)], delimiter=",", comments=None,
                       dtype=telemetry._CSV_TEXT)
    assert texts[0].tobytes() == texts[1].tobytes()
    path = tmp_path / "log.csv"
    path.write_text("\n".join([CSV_HEADER, ",".join(["0.000000", *good[1:]]), ",".join(bad), ""]))
    want = _outcome(read_csv_rows, path)
    assert want[0] is ValueError and "malformed telemetry line 3: " in want[1]
    assert _outcome(read_csv, path) == want


LINE_ENDS = {  # a CSV as written, and with other line ends
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "blank": lambda data: b"\n".join(
        line + b"\n" * (i % 1000 == 999) for i, line in enumerate(data.split(b"\n"))
    ),
}


@pytest.mark.parametrize(
    "cpus, ends",
    [(cpus, ends) for ends in LINE_ENDS for cpus in (1, 2, 3)],
    ids=[str(cpus) if ends == "lf" else f"{ends}-{cpus}" for ends in LINE_ENDS for cpus in (1, 2, 3)],
)
def test_read_converts_each_run_once(tmp_path, monkeypatch, cpus, ends):
    # default_figure8 over two whole cycles and into the third, with LF,
    # CRLF, or LF and a blank line every 1,000 rows.
    scenario = load_scenario(resolve_scenario_path("default_figure8"))
    log = run_scenario(
        scenario.orbit, scenario.antenna, scenario.receiver, scenario.tracker, 1300.0,
        peak_level_db=scenario.peak_level_db, truth_k_el=scenario.truth_k_el,
    )
    path = tmp_path / "log.csv"
    write_csv(log, str(path))
    path.write_bytes(LINE_ENDS[ends](path.read_bytes()))
    # Every reader appends a line to this file per call: the rows that a
    # _CSV_ROW parse converts, or the rows and heads that a put adds.
    record = tmp_path / "record"

    def note(*words):
        with open(record, "a") as fh:
            fh.write(" ".join(map(str, words)) + "\n")

    real_parse, real_put = telemetry._parse_lines, telemetry._Parsed.put

    def parse_lines(lines, dtype=telemetry._CSV_ROW):
        rows = real_parse(lines, dtype)
        if dtype == telemetry._CSV_ROW:
            note("converted", len(rows))
        return rows

    def put(self, *args):
        n, h = self.n, self.h
        real_put(self, *args)
        note("put", self.n - n, self.h - h)

    monkeypatch.setattr(telemetry, "_parse_lines", parse_lines)
    monkeypatch.setattr(telemetry._Parsed, "put", put)
    _force_writers(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    back = read_csv(str(path))
    assert len(forks) == cpus - 1
    assert _same_columns(back, log)
    # A head is the first row of a block or a row where a step column
    # starts a run.
    starts = np.unique(np.concatenate([log.runs(name)[0] for name in FIELDS[1:5] + FIELDS[7:]]))
    with open(path, "rb") as fh:
        blocks = len(list(telemetry._blocks(fh, telemetry._skip_header(fh), math.inf)))
    calls = [line.split() for line in record.read_text().splitlines()]
    converted = sum(int(call[1]) for call in calls if call[0] == "converted")
    rows = sum(int(call[1]) for call in calls if call[0] == "put")
    heads = sum(int(call[2]) for call in calls if call[0] == "put")
    assert rows == len(log) > 2 * scenario.tracker.cycle_period / scenario.tracker.sample_interval
    assert converted <= len(starts) + blocks < len(log) / 50
    assert heads <= len(starts) + blocks  # no reader fills a step column row by row
