"""Append-only columnar telemetry log with offline statistics and CSV persistence.

One row per simulation step, stored as nine numpy columns named in
``FIELDS``: seven float64 columns (time in s, angles in deg, beacon level
in dB, receiver volts), the phase as a small-int code (an index into
``PHASES``) and the cycle index. Rows go in as column blocks with
``extend`` (``append`` is a block of one), and time must strictly
increase. Data comes out only as columns: ``column`` gives a read-only
view of one, and ``len`` the row count.

The CSV encoding writes floats at full round-trip precision (padded to at
least six decimal places), so a written log reads back bit-exact and
still drops straight into any plotting tool. ``write_csv`` and
``read_csv`` work in fixed-size row blocks, so their memory does not
grow with the log: ``read_csv`` parses each block of lines into columns
with one ``np.loadtxt`` call. For a long log, ``write_csv`` forks up to
one writer process per available CPU, each formatting a contiguous range
of rows. While writing with W writers it holds up to (W-1)/W of the
CSV's size in anonymous temp files in the output's directory.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sys
import tempfile
import traceback
import warnings
from typing import BinaryIO, Callable, NamedTuple, NoReturn, Optional

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
_DTYPES = (np.float64,) * 7 + (np.int8, np.int64)
# One parsed CSV row. A phase field longer than the longest name is cut
# to one character more, so it can never be cut down to a valid name.
_CSV_ROW = np.dtype(
    list(zip(FIELDS, ("f8",) * 7 + (f"U{max(map(len, PHASES)) + 1}", "i8")))
)
# Rows per block when converting between columns and text: bounds the
# Python objects alive at once to a few MB however long the log is.
_BLOCK_ROWS = 1 << 12
# write_csv uses at most one writer per _MIN_FORK_ROWS rows of the log
# (the ranges then share out the values to format). After a fork, each
# page the parent or a writer first writes is copied, which cost the
# parent about 30 ms on a 15 k-row range. On a 2-core host, forking for
# rapid_cycle's 30 k-row log (15 k rows a writer) made that workload 3-9 %
# slower end to end in 3 of 3 pairs, while 60 k-row logs (30 k rows a
# writer) wrote 35 % faster than in one process in 29 and 30 of 30 pairs,
# for a moving and a resting plant.
_MIN_FORK_ROWS = 1 << 15


class BeaconStats(NamedTuple):
    mean: float
    stddev: float
    minimum: float
    maximum: float


def _phase_codes(names) -> np.ndarray:
    """Index into ``PHASES`` of one phase name, or of each in a sequence."""
    names = np.asarray(names, dtype=str)
    codes = np.full(names.shape, -1, dtype=np.int8)
    for code, name in enumerate(PHASES):
        codes[names == name] = code
    unknown = names[codes < 0]
    if unknown.size:
        raise ValueError(f"unknown phase {str(unknown[0])!r}, expected one of {PHASES}")
    return codes


class TelemetryLog:
    """Columnar row store; each row must carry a later time than the last.

    ``capacity`` preallocates that many rows, so a log of known length
    (one row per simulation step) is never copied while it grows.
    """

    def __init__(self, *, capacity: int = 0):
        self._cols = [np.empty(capacity, dtype) for dtype in _DTYPES]
        self._n = 0

    def append(
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
        """Append one row, one argument per field: ``extend`` with one row."""
        self.extend(
            [t], commanded_az, commanded_el, readback_az, readback_el,
            beacon_db, receiver_volts, phase, cycle_index,
        )

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

        ``t`` is a sequence of times; every other column is a sequence of
        the same length or a single value repeated on every row. ``phase``
        holds phase names from ``PHASES``.
        """
        t = np.asarray(t, dtype=np.float64)
        k = len(t)
        if k == 0:
            return
        n = self._n
        if not (np.diff(t) > 0).all() or (n and not t[0] > self._cols[0][n - 1]):
            last = self._cols[0][n - 1] if n else None
            raise ValueError(f"non-monotonic time in block starting {t[0]} after {last}")
        columns = (
            t, commanded_az, commanded_el, readback_az, readback_el,
            beacon_db, receiver_volts, _phase_codes(phase), cycle_index,
        )
        self._reserve(n + k)
        for col, values in zip(self._cols, columns):
            col[n : n + k] = values
        self._n = n + k

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column; ``phase`` gives codes into ``PHASES``."""
        view = self._cols[FIELDS.index(name)][: self._n]
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._n

    def _reserve(self, rows: int) -> None:
        capacity = len(self._cols[0])
        if rows > capacity:
            spare = max(rows, 2 * capacity, 1024) - self._n
            self._cols = [
                np.concatenate([col[: self._n], np.empty(spare, col.dtype)])
                for col in self._cols
            ]


def time_window(
    log: TelemetryLog, t0: Optional[float] = None, t1: Optional[float] = None
) -> slice:
    """Rows with t0 <= t <= t1 (omitted bounds are open), as a slice.

    Times strictly increase, so the rows inside the window are contiguous.
    A NaN bound, which no time satisfies, gives an empty window.
    """
    t = log.column("t")
    lo = 0 if t0 is None else int(np.searchsorted(t, t0, side="left"))
    hi = len(t) if t1 is None else int(np.searchsorted(t, t1, side="right"))
    if t1 is not None and math.isnan(t1):
        hi = lo  # searchsorted puts NaN after every time
    return slice(lo, max(lo, hi))


def beacon_stats(
    log: TelemetryLog, t0: Optional[float] = None, t1: Optional[float] = None
) -> BeaconStats:
    """Population statistics of the beacon level over [t0, t1] (inclusive).

    Omitted bounds default to the whole log. An empty window raises
    ValueError.
    """
    arr = log.column("beacon_db")[time_window(log, t0, t1)]
    if not len(arr):
        raise ValueError(f"no records in window [{t0}, {t1}]")
    return BeaconStats(
        mean=float(arr.mean()),
        stddev=float(arr.std()),  # population: divide by N
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def extract_trajectory(
    log: TelemetryLog, decimation: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Every decimation-th row's readback azimuth and elevation, as two columns."""
    if decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {decimation}")
    return (
        log.column("readback_az")[::decimation],
        log.column("readback_el")[::decimation],
    )


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


def _column_texts(
    values: np.ndarray, format_many: Callable[[np.ndarray], list[str]]
) -> list[str]:
    """Text of each value; a run of bit-identical values is formatted once.

    Runs compare bit patterns, so -0.0 and 0.0 (equal, printed
    differently) stay apart.
    """
    bits = values.view(f"u{values.itemsize}")
    starts = np.empty(len(bits), dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array(format_many(values[starts]), dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


def _phase_names(codes: np.ndarray) -> list[str]:
    return [PHASES[code] for code in codes.tolist()]


def _ints(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _write_rows(cols: list[np.ndarray], lo: int, hi: int, out: BinaryIO) -> None:
    """Write rows [lo, hi) of the columns to ``out`` as CSV lines.

    ``lo`` falls on a block boundary, and ``hi`` on one or at the end.
    """
    formats = (format_floats,) * 7 + (_phase_names, _ints)
    for start in range(lo, hi, _BLOCK_ROWS):
        block = [
            _column_texts(col[start : start + _BLOCK_ROWS], fmt)
            for col, fmt in zip(cols, formats)
        ]
        out.write("\n".join(map(",".join, zip(*block))).encode())
        out.write(b"\n")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _row_ranges(cols: list[np.ndarray]) -> list[tuple[int, int]]:
    """Contiguous row ranges on block boundaries, one per writer process.

    One range per available CPU, but no more than one per
    ``_MIN_FORK_ROWS`` rows, and a single range where ``os.fork`` is
    missing. The ranges share out the values to format, not the rows: a
    run of bit-identical values is formatted once, so a block where the
    level and volts vary row by row costs more than one where they hold.
    """
    rows = len(cols[0])
    writers = _available_cpus() if hasattr(os, "fork") else 1
    blocks = -(-rows // _BLOCK_ROWS)
    writers = max(1, min(writers, rows // _MIN_FORK_ROWS, blocks))
    if writers == 1:
        return [(0, rows)]
    # Runs of equal values in each block's float columns (what the block
    # formats), counted a block at a time so no temporary grows with the log.
    values = np.zeros(blocks, dtype=np.int64)
    for i, start in enumerate(range(0, rows, _BLOCK_ROWS)):
        for col in cols[:7]:
            bits = col[start : start + _BLOCK_ROWS].view(np.uint64)
            values[i] += np.count_nonzero(bits[1:] != bits[:-1])
    done = np.cumsum(values)
    cuts = np.searchsorted(done, done[-1] * np.arange(1, writers) / writers) + 1
    edges = [0, *np.minimum(cuts * _BLOCK_ROWS, rows).tolist(), rows]
    return list(zip(edges, edges[1:]))


def _write_rows_and_exit(
    cols: list[np.ndarray], lo: int, hi: int, part: BinaryIO
) -> NoReturn:
    """Body of a forked writer: never returns into the caller's stack."""
    code = 1
    try:
        _write_rows(cols, lo, hi, part)
        part.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def write_csv(log: TelemetryLog, path: str) -> None:
    """Write the log as CSV, formatting row ranges on every available CPU.

    The parent writes the header and the first range straight to ``path``.
    Each other range is formatted by a forked writer into an anonymous
    temp file in ``path``'s directory, which the parent then appends in
    row order. Raises OSError if a writer fails; every writer is reaped
    (and killed, if the parent fails) before this returns or raises.
    Writers are forked, not spawned, so they read the caller's columns
    in place instead of receiving a pickled copy.
    """
    cols = [log.column(name) for name in FIELDS]
    folder = os.path.dirname(os.path.abspath(path))
    # Where no temp file can go next to the output (say, /dev/null for a
    # user), the parent writes every row.
    ranges = _row_ranges(cols) if os.access(folder, os.W_OK) else [(0, len(log))]
    (lo, hi), *forked = ranges
    with open(path, "wb") as out, contextlib.ExitStack() as parts:
        out.write(CSV_HEADER.encode() + b"\n")
        writers = []  # (pid, temp file) of each range not yet appended
        try:
            for start, stop in forked:
                part = parts.enter_context(tempfile.TemporaryFile(dir=folder))
                pid = os.fork()
                if pid == 0:
                    _write_rows_and_exit(cols, start, stop, part)
                writers.append((pid, part))
            _write_rows(cols, lo, hi, out)
            while writers:
                pid, part = writers[0]
                status = os.waitpid(pid, 0)[1]
                writers.pop(0)  # only once reaped, so the finally reaps the rest
                code = os.waitstatus_to_exitcode(status)
                if code:
                    raise OSError(f"CSV writer process {pid} exited with code {code}")
                part.seek(0)
                shutil.copyfileobj(part, out)
        except BaseException:
            for pid, _ in writers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, 9)  # SIGKILL; importing signal would add 0.7 MB of RSS
            raise
        finally:
            for pid, _ in writers:
                os.waitpid(pid, 0)


def read_csv(path: str) -> TelemetryLog:
    """Parse a CSV written by ``write_csv``; blank lines are skipped.

    Raises ValueError on a foreign header, a line that does not parse
    into the nine fields (``#`` starts no comment), an unknown phase or
    time that does not strictly increase.
    """
    log = TelemetryLog()
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unrecognized telemetry header: {header!r}")
        line_no = 2
        while True:
            lines = fh.readlines(_BLOCK_ROWS * 128)  # about 128 bytes a row
            if not lines:
                break
            try:
                with warnings.catch_warnings():
                    # A block of blank lines holds no data, which is fine.
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(
                        lines, delimiter=",", comments=None, ndmin=1, dtype=_CSV_ROW
                    )
            except ValueError as exc:
                raise ValueError(
                    f"malformed telemetry line in the block from line {line_no}: {exc}"
                ) from None
            log.extend(*(rows[name] for name in FIELDS))
            line_no += len(lines)
    return log
