"""Append-only columnar telemetry log with offline statistics and CSV persistence.

One row per simulation step, in nine columns named in ``FIELDS``: seven
float64 columns (time in s, angles in deg, beacon level in dB, receiver
volts), the phase as a small-int code (an index into ``PHASES``) and the
cycle index. Rows go in as column blocks with ``extend`` (``append`` is
its name for one row, a single time), and time must be finite and
strictly increase. Each block's step columns are encoded as runs as it
comes in, at a fixed cost of some microseconds a column, so a log fed
few long blocks costs least: ``tracker.run_scenario`` logs a block per
measure pass.

Time, level and volts change on nearly every row. The commands,
readbacks, phase and cycle index are step functions: they hold over a
WAIT span or a pattern leg, and change a few thousand times in a
simulated day of 4.32 M rows. They are stored run-length encoded: the
first row and the value of each run, where neighbouring runs differ in
bit pattern, so -0.0 and 0.0 stay apart. The level is stored dense, one
value per row. A log given the step interval ``dt`` and the receiver's
volts function, as ``tracker.run_scenario`` builds it, derives the time
(row times ``dt``) and the volts (of the level) and stores neither: it
takes about 8 B a row. Any other log, such as one read from a file,
stores them too, at about 24 B a row. Data comes out as columns:
``column(name, rows)`` gives a slice of a column's rows, read-only, and
expands or computes only the rows taken; ``runs`` gives a step column's
runs, and ``len`` the row count.

The CSV encoding writes floats at full round-trip precision (padded to at
least six decimal places), so a written log reads back bit-exact and
still drops straight into any plotting tool. ``write_csv`` and
``read_csv`` work in fixed-size blocks (of rows, and of bytes on a grid
fixed by the file), so their working memory does not grow with the log.
Both follow the log's layout: the writer formats the row-by-row columns,
stored or derived, value by value and each distinct value of a step
column once a block, and the reader converts each run's step fields
once. ``read_csv`` counts the lines first to size the columns once, then
parses each block one way, with one ``np.loadtxt`` pass that converts
the row-by-row fields and keeps the step fields' text, converts the step
fields only on the rows where that text changes, and hands those rows to
``TelemetryLog.from_runs``; a block that pass cannot take is parsed a
line at a time, which names its first bad line. Given a time window,
``read_csv`` finds by bisection the blocks that can hold it, and counts
and parses those alone.
For a log of two blocks or more in a regular file, both fork up to one
process per available CPU, each working on a contiguous range of
blocks; ``_split`` shares the blocks out by count for both, and
``_fork_each`` forks, reaps and kills the processes for both, and runs
in the caller any range it cannot fork. Readers fill the columns in
place through a shared anonymous mapping and need no temp file. While
writing with W writers, ``write_csv`` holds up to (W-1)/W of the CSV's
size in anonymous temp files in the output's directory.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import shutil
import stat
import sys
import tempfile
import traceback
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn, Optional

import numpy as np


CSV_HEADER = (
    "t_s,commanded_az_deg,commanded_el_deg,readback_az_deg,readback_el_deg,"
    "beacon_db,receiver_volts,phase,cycle_index"
)

FIELDS = (
    "t", "commanded_az", "commanded_el", "readback_az", "readback_el",
    "beacon_db", "receiver_volts", "phase", "cycle_index",
)
PHASES = ("acquire", "estimate", "move", "wait")
_DTYPES = dict(zip(FIELDS, (np.float64,) * 7 + (np.int8, np.int64)))
# The columns with a value a row, stored or (time and volts, in a log that
# derives them) computed; the other six hold each value over a run of rows
# and are stored as runs.
_DENSE = ("t", "beacon_db", "receiver_volts")
_STEPS = tuple(name for name in FIELDS if name not in _DENSE)
# One parsed CSV row. A phase field longer than the longest name is cut
# to one character more, so it can never be cut down to a valid name.
_CSV_ROW = np.dtype(
    list(zip(FIELDS, ("f8",) * 7 + (f"U{max(map(len, PHASES)) + 1}", "i8")))
)
# Bytes of a step field's text that the run-aware parse keeps: a longer
# text is cut, so a field that fills them is converted on its own row.
_STEP_BYTES = 32
_STEP_TEXT = len(_STEPS) * _STEP_BYTES
# One CSV row as the run-aware parse reads it: the step fields' text side
# by side at the front, so one comparison of a row's first _STEP_TEXT
# bytes with the row before finds where any of them changes, and the
# row-by-row fields as floats.
_CSV_TEXT = np.dtype({
    "names": FIELDS,
    "formats": [f"S{_STEP_BYTES}" if name in _STEPS else "f8" for name in FIELDS],
    "offsets": [
        _STEPS.index(name) * _STEP_BYTES if name in _STEPS
        else _STEP_TEXT + 8 * _DENSE.index(name)
        for name in FIELDS
    ],
})
# Rows per block when converting between columns and text, and bytes
# per block when reading text (about 128 bytes a row): bounds the Python
# objects alive at once to a few MB however long the log is.
_BLOCK_ROWS = 1 << 12
_BLOCK_BYTES = _BLOCK_ROWS * 128
# write_csv and read_csv use at most one process per _MIN_FORK_ROWS rows
# (the ranges then share out the blocks by count), so a log of two whole
# blocks or more goes to every core. Measured in-process on a 2-core
# x86-64 host, in rounds alternating one process and two (medians, and
# the rounds two processes won): rapid_cycle's 30,000-row log wrote in
# 0.077 s against 0.053 s (19 of 21) and read in 0.075 s against 0.055 s
# (17 of 21). Logs of 16,500 and 8,200 rows wrote and read within noise
# of one process or faster, in two sets of 21 rounds (won 10 to 19).
_MIN_FORK_ROWS = _BLOCK_ROWS
# Values per leaf of beacon_stats' blocked sum of squares: at least 128,
# where numpy's pairwise sum stops splitting.
_SUM_LEAF = 1 << 14


class BeaconStats(NamedTuple):
    mean: float
    stddev: float
    minimum: float
    maximum: float


def _phase_codes(phase) -> np.ndarray:
    """Index into ``PHASES`` of each phase in an array of names or of
    integer codes, or of a single one."""
    codes = np.asarray(phase)
    if codes.dtype.kind in "iu":
        unknown = codes[(codes < 0) | (codes >= len(PHASES))]
        if unknown.size:
            raise ValueError(
                f"unknown phase code {unknown[0]}, expected 0 to {len(PHASES) - 1}"
            )
        return codes
    names = codes.astype(str)
    codes = np.full(names.shape, -1, dtype=np.int8)
    for code, name in enumerate(PHASES):
        codes[names == name] = code
    unknown = names[codes < 0]
    if unknown.size:
        raise ValueError(f"unknown phase {str(unknown[0])!r}, expected one of {PHASES}")
    return codes


def _cycle_indices(cycle_index) -> np.ndarray:
    """The cycle indices as an array; raise ValueError for one that is not
    a whole number of magnitude below 2**63."""
    values = np.asarray(cycle_index)
    if values.dtype.kind == "i":
        return values
    if values.dtype.kind == "u":
        bad = values[values > np.iinfo(np.int64).max]
    else:
        values = np.asarray(values, np.float64)
        bad = values[~((values == np.trunc(values)) & (abs(values) < 2.0**63))]
    if bad.size:
        raise ValueError(f"cycle_index must hold int64 integers, got {bad[0]}")
    return values


def _check_times(t: np.ndarray, last: Optional[float]) -> None:
    """Raise ValueError unless the times are finite and strictly increase
    from ``last`` (the log's last time, or None)."""
    if (
        (t[1:] > t[:-1]).all()
        and (last is None or t[0] > last)
        and math.isfinite(t[0])
        and math.isfinite(t[-1])
    ):
        return
    bad = t[~np.isfinite(t)]
    if len(bad):
        raise ValueError(f"non-finite time {bad[0]}")
    raise ValueError(f"non-monotonic time in block starting {t[0]} after {last}")


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Index of the first value of each run of bit-identical values."""
    bits = values.view(f"u{values.itemsize}")  # equal bits, equal integers
    heads = np.empty(len(bits), dtype=bool)
    heads[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    return np.flatnonzero(heads)


def _grown(arr: np.ndarray, size: int, used: int) -> np.ndarray:
    """A copy of the first ``used`` entries of ``arr`` in an array of ``size``."""
    grown = np.empty(size, arr.dtype)
    grown[:used] = arr[:used]
    return grown


class _Runs:
    """A step column as runs: the first row and the value of each run.

    Neighbouring runs differ in bit pattern, so -0.0 and 0.0, or two NaN
    payloads, stay apart. The buffers grow by doubling.
    """

    def __init__(self, dtype: type):
        self.starts = np.empty(0, np.int64)
        self.values = np.empty(0, dtype)
        self.count = 0  # runs in use
        self.rows = 0  # rows they cover

    def encode(self, values: np.ndarray, rows: int, heads: Optional[np.ndarray] = None) -> None:
        """Append ``rows`` rows: one value each, one value for all, or the
        value at each of ``heads`` (rows counted from the first appended,
        which is the first head) up to the next head."""
        keep = _run_heads(values)
        if self.count and values[:1].tobytes() == self.values[self.count - 1].tobytes():
            keep = keep[1:]
        end = self.count + len(keep)
        if end > len(self.starts):
            size = max(end, 2 * len(self.starts), 16)
            self.starts = _grown(self.starts, size, self.count)
            self.values = _grown(self.values, size, self.count)
        self.starts[self.count : end] = (keep if heads is None else heads[keep]) + self.rows
        self.values[self.count : end] = values[keep]
        self.count = end
        self.rows += rows


class TelemetryLog:
    """Columnar row store; each row must carry a later time than the last.

    ``beacon_db`` is stored row by row, and the six step columns
    (commands, readbacks, phase and cycle) as runs, each block's as it
    comes in: a block costs about 9 us a step column before any per-row
    work, so few long blocks go in fastest. Given a step interval ``dt``,
    the log derives ``t`` of row j as ``j * dt``; given ``volts``, it
    derives ``receiver_volts`` as ``volts(beacon_db)`` of the same rows.
    Otherwise it stores them row by row too. ``capacity`` preallocates
    that many rows of the stored row-by-row columns, so a log of known
    length (one row per simulation step) is never copied while it grows.
    """

    def __init__(
        self, *, capacity: int = 0, dt: Optional[float] = None,
        volts: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self._dt, self._volts = dt, volts
        self._dense = {
            name: np.empty(capacity, np.float64)
            for name, derived_by in zip(_DENSE, (dt, None, volts)) if derived_by is None
        }
        self._runs = {name: _Runs(_DTYPES[name]) for name in _STEPS}
        self._n = 0

    def extend(
        self,
        t,
        commanded_az,
        commanded_el,
        readback_az,
        readback_el,
        beacon_db,
        receiver_volts,
        phase,
        cycle_index,
    ) -> None:
        """Append a block of rows given as columns, one argument per field.

        ``t`` is a sequence of finite times, or one time for one row; every
        other column is a sequence of the same length or a single value
        repeated on every row. ``phase`` holds phase names from ``PHASES``
        or their codes (indices into it); a code out of range, or a
        ``cycle_index`` that is not a whole number that int64 holds, raises
        ValueError. A single value of a step column adds at most one run. A
        derived column's values must equal the log's, bit for bit, or
        ValueError is raised.
        """
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if t.ndim != 1:
            raise ValueError(f"t must be a time or a 1-D block of times, got shape {t.shape}")
        k = len(t)
        if k == 0:
            return
        n = self._n
        _check_times(t, self._rows("t", n - 1, n)[0] if n else None)
        steps = [
            _block(values, _DTYPES[name], k)
            for name, values in zip(_STEPS, (
                commanded_az, commanded_el, readback_az, readback_el,
                _phase_codes(phase), _cycle_indices(cycle_index),
            ))
        ]
        self._reserve(n + k)
        # A failed copy or check leaves the log as it was: the runs and the
        # row count move only once every column is in place. The level goes
        # in before the volts derived from it are checked.
        for name, values in zip(_DENSE, (t, beacon_db, receiver_volts)):
            if name in self._dense:
                self._dense[name][n : n + k] = values
                continue
            given = np.broadcast_to(np.asarray(values, np.float64), k)
            want = self._rows(name, n, n + k)
            bad = np.flatnonzero(given.view(np.uint64) != want.view(np.uint64))
            if len(bad):
                i = bad[0]
                raise ValueError(f"{name} {given[i]} at row {n + i} is not the derived {want[i]}")
        for runs, values in zip(self._runs.values(), steps):
            runs.encode(values, k)
        self._n = n + k

    # One row: ``t`` a single time and every column a single value.
    append = extend

    def column(self, name: str, rows: slice = slice(None)) -> np.ndarray:
        """Rows of one column, read-only, for a slice with a positive step;
        ``phase`` gives codes into ``PHASES``.

        A stored row-by-row column gives a view, and a derived one computes
        only the rows taken. A step column is cut from its runs, so only
        the rows taken are expanded, not the whole column.
        """
        lo, hi, step = rows.indices(self._n)
        if step < 1:
            raise ValueError(f"row step must be positive, got {step}")
        if name in _DENSE:
            col = self._rows(name, lo, hi, step)
        elif hi <= lo:
            col = np.empty(0, _DTYPES[name])
        else:
            heads, values = _block_runs(self, name, lo, hi)
            # Each run gives the rows taken from its head on, up to the next run's.
            taken = -(-heads // step)
            col = values.repeat(np.diff(taken, append=len(range(lo, hi, step))))
        col.flags.writeable = False
        return col

    @classmethod
    def from_runs(
        cls, dense: list[np.ndarray], ranges: list[tuple[int, np.ndarray, list[np.ndarray]]]
    ) -> TelemetryLog:
        """A log of the row-by-row columns ``dense``, stored and used in
        place, and of the step columns given range by range in row order,
        each range as ``(rows, heads, values)``: its row count, the rows
        where a step column may change (counted from its first row, the
        first head) and each step column's values on them."""
        log = cls()
        for rows, heads, values in ranges:
            for runs, col in zip(log._runs.values(), values):
                runs.encode(col, rows, heads)
            log._n += rows
        log._dense = dict(zip(_DENSE, dense))
        return log

    def runs(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """First row and value of each run of a step column, read-only.

        Neighbouring runs differ in bit pattern. Raises KeyError for a
        column stored row by row.
        """
        runs = self._runs[name]
        starts, values = runs.starts[: runs.count], runs.values[: runs.count]
        starts.flags.writeable = values.flags.writeable = False
        return starts, values

    def __len__(self) -> int:
        return self._n

    def _rows(self, name: str, lo: int, hi: int, step: int = 1) -> np.ndarray:
        """Rows ``lo:hi:step`` of a row-by-row column: a view of a stored
        one, or a derived one computed on those rows alone."""
        if name in self._dense:
            return self._dense[name][lo:hi:step]
        if name == "t":
            return np.arange(lo, hi, step) * self._dt
        return self._volts(self._rows("beacon_db", lo, hi, step))

    def first_row_at(self, time: float) -> int:
        """The first row whose time is at or after ``time``, or ``len`` if
        none is or ``time`` is NaN, as ``searchsorted`` finds it. Derived
        times are not computed: the row comes by arithmetic."""
        if self._dt is None:
            return int(np.searchsorted(self._rows("t", 0, self._n), time, side="left"))
        return self._n if math.isnan(time) else _first_step_at(time, self._dt, self._n)

    def _reserve(self, rows: int) -> None:
        for name, col in self._dense.items():
            if rows > len(col):
                self._dense[name] = _grown(col, max(rows, 2 * len(col), 1024), self._n)


def _block(values, dtype: type, rows: int) -> np.ndarray:
    """``rows`` values of a column as an array of ``dtype``, or a single one."""
    values = np.asarray(values, dtype)
    if values.ndim == 0:
        return values.reshape(1)
    return np.broadcast_to(values, (rows,))


def _first_step_at(due: float, dt: float, n_steps: int) -> int:
    """The first step j with ``j * dt >= due``, or ``n_steps`` if no step of
    the run is."""
    if due > (n_steps - 1) * dt:
        return n_steps
    if not due > 0:
        return 0
    # The quotient may round either way.
    end = math.ceil(due / dt)
    while end > 0 and (end - 1) * dt >= due:
        end -= 1
    while end * dt < due:
        end += 1
    return end


def time_window(
    log: TelemetryLog, t0: Optional[float] = None, t1: Optional[float] = None
) -> slice:
    """Rows with t0 <= t <= t1 (omitted bounds are open), as a slice.

    Times strictly increase, so the rows inside the window are contiguous.
    A NaN bound, which no time satisfies, gives an empty window.
    """
    lo = 0 if t0 is None else log.first_row_at(t0)
    hi = len(log) if t1 is None else log.first_row_at(math.nextafter(t1, math.inf))
    if t1 is not None and math.isnan(t1):
        hi = lo  # NaN sorts after every time
    return slice(lo, max(lo, hi))


def beacon_stats(
    log: TelemetryLog, t0: Optional[float] = None, t1: Optional[float] = None
) -> BeaconStats:
    """Population statistics of the beacon level over [t0, t1] (inclusive).

    Omitted bounds default to the whole log. An empty window raises
    ValueError.
    """
    arr = log.column("beacon_db", time_window(log, t0, t1))
    n = len(arr)
    if not n:
        raise ValueError(f"no records in window [{t0}, {t1}]")
    mean = np.add.reduce(arr) / n
    return BeaconStats(
        mean=float(mean),
        stddev=math.sqrt(_sum_squares(arr, mean) / n),  # population: divide by N
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def _sum_squares(x: np.ndarray, mean: float) -> float:
    """Sum of ``(x - mean)**2``, bit for bit as ``x.std()`` sums it, in
    leaves of at most ``_SUM_LEAF`` values.

    numpy sums a contiguous array pairwise: it splits n values at n//2
    rounded down to a multiple of 8, down to 128 values or fewer. The
    leaves here are nodes of that same tree, so their sums, added in the
    tree's order, give numpy's sum without its n-value temporary.
    """
    n = len(x)
    if n <= _SUM_LEAF:
        d = x - mean
        return float(np.add.reduce(np.multiply(d, d, out=d)))
    half = n // 2 - n // 2 % 8
    return _sum_squares(x[:half], mean) + _sum_squares(x[half:], mean)


def extract_trajectory(
    log: TelemetryLog, decimation: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Every decimation-th row's readback azimuth and elevation, as two columns."""
    if decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {decimation}")
    rows = slice(None, None, decimation)
    return log.column("readback_az", rows), log.column("readback_el", rows)


def format_floats(values) -> list[str]:
    """Shortest exact decimal form of each value, padded to >= 6 decimal places.

    Each value's text is its ``repr`` with zeros appended up to six
    decimals when it has fewer and is in plain (not exponent) form. Two
    C-level calls make all of them, without looking at each string:

    - When 1e-4 <= |x| < 1e9 or x == 0, and ``np.round(x, 6) == x``, x is
      the double nearest a decimal d with at most six decimals and at
      most 15 significant digits. Then ``repr(x)`` is d in plain form, and
      d padded to six decimals is ``'%.6f' % x``: x is within half an ulp
      (below 1e-7) of d, so it rounds to d at six decimals.
    - Otherwise, when |x| < 1e9, ``repr(x)`` already has more than six
      decimals (``np.round`` would give x back if it had at most six), is
      in exponent form (0 < |x| < 1e-4) or is non-finite: no padding.
    - For finite |x| >= 1e9, the repr is padded by its own text, as the
      rule says; telemetry rarely holds such values.
    """
    values = np.asarray(values, dtype=np.float64)
    size = np.abs(values)
    with np.errstate(over="ignore", invalid="ignore"):
        six = (np.round(values, 6) == values) & (
            (size >= 1e-4) & (size < 1e9) | (values == 0)
        )
    fast = values[six].tolist()
    # The repr of a list holds the repr of each float, made in one C call.
    other = values[~six]
    texts = repr(other.tolist())[1:-1].split(", ") if len(other) else []
    for i in np.flatnonzero(np.abs(other) >= 1e9).tolist():
        s = texts[i]
        if "e" not in s and "." in s and len(s) - s.find(".") <= 6:
            texts[i] = s + "0" * (7 - len(s) + s.find("."))
    fixed = ("%.6f," * len(fast) % tuple(fast)).split(",")[:-1]
    if not (fixed and texts):
        return fixed or texts
    merged = np.empty(len(values), dtype=object)
    merged[six] = fixed
    merged[~six] = texts
    return merged.tolist()


def _block_runs(log: TelemetryLog, name: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs of a step column over rows [lo, hi), cut from the log's: first
    rows, counted from ``lo``, and values."""
    starts, values = log.runs(name)
    first = np.searchsorted(starts, lo, side="right") - 1
    stop = np.searchsorted(starts, hi, side="left")
    heads = starts[first:stop] - lo
    heads[0] = 0
    return heads, values[first:stop]


def _column_texts(
    heads: np.ndarray,
    values: np.ndarray,
    rows: int,
    format_many: Callable[[np.ndarray], list[str]],
) -> list[str]:
    """Text of each of ``rows`` rows given as runs; each distinct value is
    formatted once. Values are told apart by bit pattern, as runs are."""
    # One run, as in 457 of the 528 step-column blocks of a 2 h day mostly
    # at rest: a list repeat takes a sixth of the time of the path below.
    if len(values) == 1:
        return format_many(values) * rows
    distinct, which = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    texts = np.array(format_many(distinct.view(values.dtype)), dtype=object)[which]
    if len(texts) < rows:
        texts = texts.repeat(np.diff(heads, append=rows))
    return texts.tolist()


def _phase_names(codes: np.ndarray) -> list[str]:
    return [PHASES[code] for code in codes.tolist()]


def _ints(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


_FORMATS = (format_floats,) * 7 + (_phase_names, _ints)


def _write_rows(log: TelemetryLog, lo: int, hi: int, out: BinaryIO) -> None:
    """Write rows [lo, hi) of the log to ``out`` as CSV lines.

    ``lo`` falls on a block boundary, and ``hi`` on one or at the end.
    """
    for start in range(lo, hi, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, hi)
        block = [
            format_floats(log.column(name, slice(start, stop))) if name in _DENSE
            else _column_texts(*_block_runs(log, name, start, stop), stop - start, fmt)
            for name, fmt in zip(FIELDS, _FORMATS)
        ]
        out.write("\n".join(map(",".join, zip(*block))).encode())
        out.write(b"\n")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _processes(rows: int, blocks: int) -> int:
    """Processes for a job of ``rows`` rows in ``blocks`` blocks.

    One per available CPU, but no more than one per ``_MIN_FORK_ROWS``
    rows or per block, and a single one where ``os.fork`` is missing.
    """
    cpus = _available_cpus() if hasattr(os, "fork") else 1
    return max(1, min(cpus, rows // _MIN_FORK_ROWS, blocks))


def _split(blocks: int, parts: int) -> list[int]:
    """Edges cutting ``blocks`` blocks into ``parts`` contiguous ranges,
    whose block counts differ by at most one."""
    return [blocks * i // parts for i in range(parts + 1)]


def _run_and_exit(work: Callable[[int], None], i: int) -> NoReturn:
    """Body of a forked child: never returns into the caller's stack."""
    code = 1
    try:
        work(i)
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _fork_each(work: Callable[[int], None], count: int, what: str) -> None:
    """Run ``work(i)`` for each i below ``count``: 0 here, the others in forked children.

    Where ``os.fork`` fails, this process runs each ``work(i)`` it could
    not fork, after ``work(0)``. Raises OSError if a child exits non-zero
    (it prints its traceback to stderr). Every child is reaped, and
    killed first if this process fails, before this returns or raises.
    Children are forked, not spawned, so they see the caller's arrays in
    place.
    """
    children = []  # pids not yet reaped
    here = [0]
    try:
        for i in range(1, count):
            try:
                pid = os.fork()
            except OSError:  # such as EAGAIN at a process limit
                here += range(i, count)
                break
            if pid == 0:
                _run_and_exit(work, i)
            children.append(pid)
        for i in here:
            work(i)
        while children:
            status = os.waitpid(children[0], 0)[1]
            pid = children.pop(0)  # only once reaped, so the finally reaps the rest
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise OSError(f"CSV {what} process {pid} exited with code {code}")
    except BaseException:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, 9)  # SIGKILL; importing signal would add 0.7 MB of RSS
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)


def _is_regular(fh: BinaryIO) -> bool:
    return stat.S_ISREG(os.fstat(fh.fileno()).st_mode)


def write_csv(log: TelemetryLog, path: str) -> None:
    """Write the log as CSV, formatting row ranges on every available CPU.

    The parent writes the header and the first range straight to ``path``.
    Each other range is formatted by a forked writer into an anonymous
    temp file in ``path``'s directory, which the parent then appends in
    row order. Raises OSError if a writer fails. Only a regular file in a
    writable directory gets writers: ``/dev/null`` or a pipe is written
    in one process.
    """
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as out, contextlib.ExitStack() as parts:
        rows = len(log)
        blocks = -(-rows // _BLOCK_ROWS)
        forking = _is_regular(out) and os.access(folder, os.W_OK)
        edges = [
            min(edge * _BLOCK_ROWS, rows)
            for edge in _split(blocks, _processes(rows, blocks) if forking else 1)
        ]
        ranges = list(zip(edges, edges[1:]))
        outs = [out] + [
            parts.enter_context(tempfile.TemporaryFile(dir=folder)) for _ in ranges[1:]
        ]
        out.write(CSV_HEADER.encode() + b"\n")

        def write(i: int) -> None:
            _write_rows(log, *ranges[i], outs[i])
            outs[i].flush()

        _fork_each(write, len(ranges), "writer")
        for part in outs[1:]:
            part.seek(0)
            shutil.copyfileobj(part, out)


def _skip_header(fh: BinaryIO) -> int:
    """Check the header line and return the byte offset of the line after it.

    The header ends at the first ``\\n``, ``\\r\\n`` or bare ``\\r``, as text
    files split lines with ``newline=""``.
    """
    line = fh.readline()
    cr = line.find(b"\r")
    if cr >= 0 and line[cr + 1 : cr + 2] != b"\n":
        line = line[: cr + 1]
    header = line.decode(errors="surrogateescape").strip()
    if header != CSV_HEADER:
        raise ValueError(f"unrecognized telemetry header: {header!r}")
    return len(line)


def _blocks(fh: BinaryIO, pos: int, stop: float) -> Iterator[bytes]:
    """The bytes of each block from the block edge ``pos`` to ``stop`` (an edge or EOF).

    A block ends at the first line start (just after a ``\\n``) at or
    after the next multiple of ``_BLOCK_BYTES``. So the edges depend on
    the file alone, and reading from any edge gives the same blocks.
    """
    fh.seek(pos)
    while pos < stop:
        text = fh.read(min(pos - pos % _BLOCK_BYTES + _BLOCK_BYTES, stop) - pos)
        if not text:
            return
        if not text.endswith(b"\n") and pos + len(text) < stop:
            text += fh.readline()
        pos += len(text)
        yield text


def _window_edges(
    fh: BinaryIO, start: int, t0: Optional[float], t1: Optional[float]
) -> tuple[int, int]:
    """The bytes, from block edge to block edge, of the blocks that can
    hold rows with t0 <= t <= t1 (omitted bounds are open).

    Probe k is the edge that ``_blocks`` cuts at the k-th multiple of
    ``_BLOCK_BYTES``, with the time of the row there (inf at EOF): every
    row before it is earlier. Two bisections over the probes find the
    last edge at or before t0 and the first after t1. Gives the whole
    file where it is one block, where a probe's time does not parse as a
    finite number (a blank line, a fault, a line longer than a block) or
    where the probed times do not increase.
    """
    size = fh.seek(0, os.SEEK_END)
    first, last = start // _BLOCK_BYTES + 1, (size - 1) // _BLOCK_BYTES
    probes = {first - 1: (start, -math.inf), last + 1: (size, math.inf)}  # k: edge, time

    def probe(k: int) -> float:
        if k not in probes:
            fh.seek(k * _BLOCK_BYTES - 1)
            if not fh.readline(_BLOCK_BYTES).endswith(b"\n") and fh.tell() < size:
                raise ValueError("a line longer than a block")
            edge = fh.tell()
            field, comma, _ = fh.readline(_BLOCK_BYTES).partition(b",")
            time = math.inf if edge == size else float(field) if comma else math.nan
            if not math.isfinite(time) and edge < size:
                raise ValueError(f"no time at byte {edge}")
            probes[k] = edge, time
        return probes[k][1]

    def after(x: float) -> int:
        """The first probe whose time is above ``x``."""
        lo, hi = first, last + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if x < probe(mid) else (mid + 1, hi)
        return lo

    with contextlib.suppress(ValueError):
        lo = first - 1 if t0 is None else after(t0) - 1
        hi = last + 1 if t1 is None else after(t1)
        seen = [probes[k] for k in sorted(probes)]
        if all(a[1] < b[1] or a[0] == b[0] for a, b in zip(seen, seen[1:])):
            return probes[lo][0], probes[hi][0]
    return start, size


def _line_count(text: bytes) -> int:
    """Lines in ``text``, split at ``\\n``, ``\\r\\n`` and bare ``\\r`` as
    ``_lines`` splits them."""
    codes = np.frombuffer(text, np.uint8)  # counts several times faster than bytes.count
    lines = int(np.count_nonzero(codes == ord("\n")))
    if b"\r" in text:
        lines += int(np.count_nonzero(codes == ord("\r"))) - text.count(b"\r\n")
    return lines + (bool(text) and not text.endswith((b"\n", b"\r")))


def _lines(text: bytes) -> list[str]:
    """The lines of a block, without their ends, split as ``_line_count``
    counts them. A byte that is not UTF-8 becomes a lone surrogate, which
    no field parses, so the line that holds it fails in file order."""
    decoded = text.decode(errors="surrogateescape")
    if "\r" in decoded:
        decoded = decoded.replace("\r\n", "\n").replace("\r", "\n")
    lines = decoded.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _parse_lines(lines: list[str], dtype: np.dtype = _CSV_ROW) -> np.ndarray:
    """The rows of CSV lines, at least one of them not blank; blank lines
    are skipped."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype)


class _Parsed:
    """Rows parsed by one CSV reader: the row-by-row columns put in place,
    and the step columns as their values on head rows, where any of them
    may change. ``n`` rows and ``h`` heads are in."""

    def __init__(self, dense: list[np.ndarray], heads: np.ndarray, steps: list[np.ndarray]):
        self.dense, self.heads, self.steps = dense, heads, steps
        self.n = self.h = 0

    def put(self, rows: np.ndarray, heads: np.ndarray, tops: np.ndarray) -> None:
        """Check parsed rows as ``TelemetryLog.extend`` does and put them after the others.

        ``rows`` gives the row-by-row fields of every row, and ``tops``
        every field of the rows at ``heads``: the first row, and each row
        whose step fields may differ from the row before.
        """
        k, n, h = len(rows), self.n, self.h
        _check_times(rows["t"], self.dense[0][n - 1] if n else None)
        codes = _phase_codes(tops["phase"])
        for col, name in zip(self.dense, _DENSE):
            col[n : n + k] = rows[name]
        end = h + len(heads)
        self.heads[h:end] = heads + n
        for col, name in zip(self.steps, _STEPS):
            col[h:end] = codes if name == "phase" else tops[name]
        self.n, self.h = n + k, end


def _put_block(text: bytes, line_no: int, part: _Parsed) -> int:
    """Parse a block into ``part``, converting each run's step fields once,
    and return its line count; blank lines are skipped.

    One ``np.loadtxt`` pass converts the row-by-row fields and keeps the
    step fields' text. Only the heads go through ``_CSV_ROW``: the first
    row, each row whose step text differs from the row before, and each
    with a step field that fills ``_STEP_BYTES``. Every other row takes
    its head's values. Where that pass cannot take the block (a NUL,
    which ``loadtxt`` drops from the end of a field's text, or a row that
    does not parse or go into the log), each line is parsed on its own as
    its own head. ``line_no`` is the number of the block's first line in
    the file. Raises the ValueError of ``read_csv``, naming the file line
    of the first line that does not parse or does not go into the log (an
    unknown phase, a time out of order or not finite).
    """
    lines = _lines(text)
    if any(lines) and b"\0" not in text:
        with contextlib.suppress(ValueError):
            rows = _parse_lines(lines, _CSV_TEXT)  # skips blank lines
            k = len(rows)
            body = lines if k == len(lines) else [line for line in lines if line]
            words = rows.view(np.uint64).reshape(k, -1)[:, : _STEP_TEXT // 8]
            full = rows.view(np.uint8).reshape(k, -1)[:, _STEP_BYTES - 1 : _STEP_TEXT : _STEP_BYTES]
            heads = full.any(axis=1)
            heads[0] = True
            heads[1:] |= (words[1:] != words[:-1]).any(axis=1)
            heads = np.flatnonzero(heads)
            part.put(rows, heads, _parse_lines([body[i] for i in heads.tolist()]))
            return len(lines)
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            row = _parse_lines([line])
            part.put(row, np.zeros(1, np.int64), row)
        except ValueError as exc:
            # numpy's row count restarts at this one line.
            why = str(exc).replace(" at row 1", "").replace(" at row 0", "")
            raise ValueError(
                f"malformed telemetry line {line_no + i}: {line.rstrip()!r}: {why}"
            ) from None
    return len(lines)


def _read_blocks(fh: BinaryIO, lo: int, hi: int, line_no: int, part: _Parsed) -> None:
    """Parse the blocks from byte ``lo`` to ``hi`` into ``part``.

    ``line_no`` is the number of the first line in the file. Raises the
    ValueError of ``_put_block`` at the first bad block.
    """
    for text in _blocks(fh, lo, hi):
        line_no += _put_block(text, line_no, part)


def _shared_arrays(shapes: list[tuple[type, int]]) -> list[np.ndarray]:
    """Arrays of the given dtypes and lengths in one anonymous shared mapping,
    so forked children write into the caller's memory."""
    sizes = [-(-np.dtype(dtype).itemsize * n // 8) * 8 for dtype, n in shapes]
    buf = mmap.mmap(-1, max(1, sum(sizes)))
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()
    return [
        np.frombuffer(buf, dtype, n, offset)
        for (dtype, n), offset in zip(shapes, offsets)
    ]


def read_csv(path: str, t0: Optional[float] = None, t1: Optional[float] = None) -> TelemetryLog:
    """Parse a CSV written by ``write_csv``; blank lines are skipped.

    Raises ValueError on a foreign header, a line that does not parse
    into the nine fields (``#`` starts no comment), an unknown phase or a
    time that is not finite or does not strictly increase: the first of
    these in the part of the file read, however many readers share the
    work.

    Given ``t0`` or ``t1``, a regular file is read only over the blocks
    that ``_window_edges`` finds can hold rows with t0 <= t <= t1: the log
    holds every row of that window and may hold rows on either side.
    Only those rows are checked: a fault outside them is not seen, and
    one inside raises as in a whole read, naming the same file line. The
    blocks are told by their first rows' times, so in a file whose times
    go back where no probe sees it, the window can miss rows.

    A first pass counts the lines of each block read, so the columns are
    sized once and each range's rows start at its first line's row. A long
    regular file is then parsed in contiguous ranges of blocks, one per
    available CPU, cut as ``write_csv`` cuts its blocks: the parent parses
    the first and forked readers the others, into a shared mapping.
    Raises OSError if a reader fails. Any other input, such as a pipe, is
    read whole into memory and parsed in one process. Each block is
    parsed one way, by ``_put_block``: a reader converts each run's step
    fields once, and puts the row-by-row columns in place and the step
    columns' values on head rows only. Each range's heads and values go
    to ``TelemetryLog.from_runs`` as they lie, which encodes them as the
    log's runs. If a later range (or any range of a window) fails, or its
    times do not follow the range before it, the blocks are read again as
    one range in this process, which raises the first error. A byte that
    is not UTF-8 fails the line that holds it.
    """
    with open(path, "rb") as fh:
        regular = _is_regular(fh)
        src = fh if regular else io.BytesIO(fh.read())
        start = _skip_header(src)
        first, stop = _window_edges(src, start, t0, t1) if regular else (start, math.inf)
        edges, lines = [first], [0]  # of each block, and lines before it in the range
        for text in _blocks(src, first, stop):
            edges.append(edges[-1] + len(text))
            lines.append(lines[-1] + _line_count(text))
        readers = _processes(lines[-1], len(edges) - 1) if regular else 1
        bounds = _split(len(edges) - 1, readers)
        dense = _shared_arrays([(np.float64, lines[-1])] * len(_DENSE))
        # The heads, step values and counts get a mapping of their own,
        # freed once they are encoded as runs. Each reader puts its heads
        # from its first line's row on, so pages that no head reaches are
        # never touched.
        heads, *steps, counts = _shared_arrays(
            [(np.int64, lines[-1])]
            + [(_DTYPES[name], lines[-1]) for name in _STEPS]
            + [(np.int64, 2 * readers)]
        )
        counts = counts.reshape(2, readers)  # rows and heads each reader put

        def read(lo: int, hi: int, line_no: int = 2) -> _Parsed:
            """Parse blocks [lo, hi) into the columns from their first line's
            row on; ``line_no`` is the file line of the range's first line."""
            at = slice(lines[lo], lines[hi])
            part = _Parsed([col[at] for col in dense], heads[at], [col[at] for col in steps])
            with open(path, "rb") if lo else contextlib.nullcontext(src) as own:
                _read_blocks(own, edges[lo], edges[hi], line_no + lines[lo], part)
            return part

        def read_range(i: int) -> None:
            try:
                part = read(bounds[i], bounds[i + 1])
            except ValueError:
                if i == 0 and first == start:
                    raise  # the first range of the file: the first error in it
                counts[0, i] = -1
                return
            counts[:, i] = part.n, part.h

        _fork_each(read_range, readers, "reader")
        if (counts >= 0).all():
            n, ranges = 0, []
            for lo, got, put in zip(bounds, *counts.tolist()):
                at = lines[lo]
                if at > n:  # close the gap that blank lines left
                    for col in dense:
                        col[n : n + got] = col[at : at + got]
                ranges.append((got, heads[at : at + put], [col[at : at + put] for col in steps]))
                n += got
            t = dense[0][:n]
            if (t[1:] > t[:-1]).all():
                return TelemetryLog.from_runs(dense, ranges)
        # A range failed, or its times do not follow the range before it:
        # reading in order raises the first error. Only here are the lines
        # before a window's blocks counted, so that it names its file line.
        before = sum(map(_line_count, _blocks(src, start, first)))
        part = read(0, len(edges) - 1, 2 + before)
        h = part.h
        return TelemetryLog.from_runs(dense, [(part.n, heads[:h], [col[:h] for col in steps])])
