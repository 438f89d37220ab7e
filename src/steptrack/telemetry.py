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
``read_csv`` work in fixed-size blocks (of rows, and of bytes on a grid
fixed by the file), so their working memory does not grow with the log:
``read_csv`` counts the lines first to size the columns once, then parses
each block of lines with one ``np.loadtxt`` call. For a long log in a
regular file, both fork up to one process per available CPU, each
working on a contiguous range of blocks; one helper, ``_fork_each``,
forks, reaps and kills them for both. Readers fill the columns in place
through a shared anonymous mapping and need no temp file. While writing
with W writers, ``write_csv`` holds up to (W-1)/W of the CSV's size in
anonymous temp files in the output's directory.
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
import warnings
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
_DTYPES = (np.float64,) * 7 + (np.int8, np.int64)
# One parsed CSV row. A phase field longer than the longest name is cut
# to one character more, so it can never be cut down to a valid name.
_CSV_ROW = np.dtype(
    list(zip(FIELDS, ("f8",) * 7 + (f"U{max(map(len, PHASES)) + 1}", "i8")))
)
# Rows per block when converting between columns and text, and bytes
# per block when reading text (about 128 bytes a row): bounds the Python
# objects alive at once to a few MB however long the log is.
_BLOCK_ROWS = 1 << 12
_BLOCK_BYTES = _BLOCK_ROWS * 128
# write_csv and read_csv use at most one process per _MIN_FORK_ROWS rows
# (the ranges then share out the values to format, or the bytes to
# parse). Measured for the writers: after a fork, each
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
        if not (t[1:] > t[:-1]).all() or (n and not t[0] > self._cols[0][n - 1]):
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


def _processes(rows: int, blocks: int) -> int:
    """Processes for a job of ``rows`` rows in ``blocks`` blocks.

    One per available CPU, but no more than one per ``_MIN_FORK_ROWS``
    rows or per block, and a single one where ``os.fork`` is missing.
    """
    cpus = _available_cpus() if hasattr(os, "fork") else 1
    return max(1, min(cpus, rows // _MIN_FORK_ROWS, blocks))


def _split(costs: np.ndarray, parts: int) -> list[int]:
    """Edges cutting the blocks into ``parts`` contiguous runs of about equal cost."""
    if parts == 1:
        return [0, len(costs)]
    done = np.cumsum(costs)
    cuts = np.searchsorted(done, done[-1] * np.arange(1, parts) / parts) + 1
    return [0, *cuts.tolist(), len(costs)]


def _row_ranges(cols: list[np.ndarray]) -> list[tuple[int, int]]:
    """Contiguous row ranges on block boundaries, one per writer process.

    The ranges share out the values to format, not the rows: a run of
    bit-identical values is formatted once, so a block where the level
    and volts vary row by row costs more than one where they hold.
    """
    rows = len(cols[0])
    blocks = -(-rows // _BLOCK_ROWS)
    writers = _processes(rows, blocks)
    if writers == 1:
        return [(0, rows)]
    # Runs of equal values in each block's float columns (what the block
    # formats), counted a block at a time so no temporary grows with the log.
    values = np.zeros(blocks, dtype=np.int64)
    for i, start in enumerate(range(0, rows, _BLOCK_ROWS)):
        for col in cols[:7]:
            bits = col[start : start + _BLOCK_ROWS].view(np.uint64)
            values[i] += np.count_nonzero(bits[1:] != bits[:-1])
    edges = np.minimum(np.array(_split(values, writers)) * _BLOCK_ROWS, rows).tolist()
    return list(zip(edges, edges[1:]))


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

    Raises OSError if a child exits non-zero (it prints its traceback to
    stderr). Every child is reaped, and killed first if this process
    fails, before this returns or raises. Children are forked, not
    spawned, so they see the caller's arrays in place.
    """
    children = []  # pids not yet reaped
    try:
        for i in range(1, count):
            pid = os.fork()
            if pid == 0:
                _run_and_exit(work, i)
            children.append(pid)
        work(0)
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
    cols = [log.column(name) for name in FIELDS]
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as out, contextlib.ExitStack() as parts:
        forking = _is_regular(out) and os.access(folder, os.W_OK)
        ranges = _row_ranges(cols) if forking else [(0, len(log))]
        outs = [out] + [
            parts.enter_context(tempfile.TemporaryFile(dir=folder)) for _ in ranges[1:]
        ]
        out.write(CSV_HEADER.encode() + b"\n")

        def write(i: int) -> None:
            _write_rows(cols, *ranges[i], outs[i])
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
    header = line.decode().strip()
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


def _line_count(text: bytes) -> int:
    """Lines in ``text``, split at ``\\n``, ``\\r\\n`` and bare ``\\r`` as
    ``_read_blocks`` splits them."""
    codes = np.frombuffer(text, np.uint8)  # counts several times faster than bytes.count
    lines = int(np.count_nonzero(codes == ord("\n")))
    if b"\r" in text:
        lines += int(np.count_nonzero(codes == ord("\r"))) - text.count(b"\r\n")
    return lines + (bool(text) and not text.endswith((b"\n", b"\r")))


def _parse_lines(lines: list[str]) -> np.ndarray:
    """The rows of CSV lines; blank lines are skipped."""
    with warnings.catch_warnings():
        # A block of blank lines holds no data, which is fine.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=_CSV_ROW)


def _read_blocks(fh: BinaryIO, lo: int, hi: int, line_no: int, log: TelemetryLog) -> None:
    """Parse the blocks from byte ``lo`` to ``hi`` into ``log``.

    ``line_no`` is the number of the first line in the file. Raises the
    ValueError of ``read_csv`` at the first bad block, naming the file line
    of its first line that, on its own, does not parse or does not go into
    the log (an unknown phase, a time out of order).
    """
    for text in _blocks(fh, lo, hi):
        lines = io.StringIO(text.decode(), newline="").readlines()
        try:
            rows = _parse_lines(lines)
            log.extend(*(rows[name] for name in FIELDS))
        except ValueError as exc:
            for i, line in enumerate(lines):
                try:
                    rows = _parse_lines([line])
                    log.extend(*(rows[name] for name in FIELDS))
                except ValueError as line_exc:
                    # numpy's row count restarts at this one line.
                    why = str(line_exc).replace(" at row 1", "").replace(" at row 0", "")
                    raise ValueError(
                        f"malformed telemetry line {line_no + i}: {line.rstrip()!r}: {why}"
                    ) from None
            raise ValueError(
                f"malformed telemetry line in the block from line {line_no}: {exc}"
            ) from None
        line_no += len(lines)


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


def _log_over(cols: list[np.ndarray], rows: int = 0) -> TelemetryLog:
    """A log whose columns are ``cols`` themselves, holding their first ``rows`` rows."""
    log = TelemetryLog()
    log._cols, log._n = cols, rows
    return log


def read_csv(path: str) -> TelemetryLog:
    """Parse a CSV written by ``write_csv``; blank lines are skipped.

    Raises ValueError on a foreign header, a line that does not parse
    into the nine fields (``#`` starts no comment), an unknown phase or
    time that does not strictly increase: the first of these in the file,
    however many readers share the work.

    A first pass counts the lines of each block, so the columns are sized
    once. A long regular file is then parsed in contiguous ranges of
    blocks, one per available CPU: the parent parses the first and forked
    readers the others, into columns in a shared mapping. Raises OSError
    if a reader fails. Any other input, such as a pipe, is read whole
    into memory and parsed in one process.
    """
    with open(path, "rb") as fh:
        regular = _is_regular(fh)
        src = fh if regular else io.BytesIO(fh.read())
        start = _skip_header(src)
        edges, lines = [start], [0]  # of each block, and lines before it
        for text in _blocks(src, start, math.inf):
            edges.append(edges[-1] + len(text))
            lines.append(lines[-1] + _line_count(text))
        readers = _processes(lines[-1], len(edges) - 1) if regular else 1
        bounds = _split(np.diff(edges), readers)
        *cols, counts = _shared_arrays(
            [(dtype, lines[-1]) for dtype in _DTYPES] + [(np.int64, readers)]
        )

        def read(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            part = _log_over([col[lines[lo] : lines[hi]] for col in cols])
            with open(path, "rb") if i else contextlib.nullcontext(src) as own:
                try:
                    _read_blocks(own, edges[lo], edges[hi], 2 + lines[lo], part)
                except ValueError:
                    if i == 0:
                        raise  # the first range: the first error in the file
                    counts[i] = -1
                    return
            counts[i] = len(part)

        _fork_each(read, readers, "reader")
        n = 0
        if (counts >= 0).all():
            # Each range starts at its first line's row: close the gaps
            # that blank lines left.
            for lo, got in zip(bounds, counts.tolist()):
                if lines[lo] > n:
                    for col in cols:
                        col[n : n + got] = col[lines[lo] : lines[lo] + got]
                n += got
            t = cols[0][:n]
            if (t[1:] > t[:-1]).all():
                return _log_over(cols, n)
        # A later range failed, or its times do not follow the range before
        # it: reading the file in order raises the first error.
        log = _log_over(cols)
        _read_blocks(src, start, edges[-1], 2, log)
        return log
