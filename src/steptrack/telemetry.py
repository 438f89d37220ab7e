"""Append-only columnar telemetry log with offline statistics and CSV persistence.

One row per simulation step, stored as numpy columns: seven float64
columns, the phase as a small-int code (an index into ``PHASES``) and the
cycle index. Rows go in one at a time with ``append`` or as column
blocks with ``extend``; both require strictly increasing time. Iterating
or indexing still yields ``TelemetryRecord`` rows with the phase name,
and ``column`` gives read-only column views for vectorised analysis.

The CSV encoding writes floats at full round-trip precision (padded to at
least six decimal places), so a written log reads back bit-exact and
still drops straight into any plotting tool. ``write_csv`` and
``read_csv`` work in fixed-size row blocks, so their memory does not
grow with the log: ``read_csv`` parses each block of lines into columns
with one ``np.loadtxt`` call.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np


class TelemetryRecord(NamedTuple):
    t: float  # s
    commanded_az: float  # deg
    commanded_el: float  # deg
    readback_az: float  # deg
    readback_el: float  # deg
    beacon_db: float
    receiver_volts: float
    phase: str
    cycle_index: int


CSV_HEADER = (
    "t_s,commanded_az_deg,commanded_el_deg,readback_az_deg,readback_el_deg,"
    "beacon_db,receiver_volts,phase,cycle_index"
)

FIELDS = TelemetryRecord._fields
PHASES = ("acquire", "estimate", "move", "wait")
_PHASE_CODES = {name: code for code, name in enumerate(PHASES)}
_DTYPES = (np.float64,) * 7 + (np.int8, np.int64)
_PHASE = FIELDS.index("phase")
# One parsed CSV row. A phase field longer than the longest name is cut
# to one character more, so it can never be cut down to a valid name.
_CSV_ROW = np.dtype(
    list(zip(FIELDS, ("f8",) * 7 + (f"U{max(map(len, PHASES)) + 1}", "i8")))
)
# Rows per block when converting between columns and text: bounds the
# Python objects alive at once to a few MB however long the log is.
_BLOCK_ROWS = 1 << 12


class BeaconStats(NamedTuple):
    mean: float
    stddev: float
    minimum: float
    maximum: float


def _phase_code(name: str) -> int:
    try:
        return _PHASE_CODES[name]
    except KeyError:
        raise ValueError(f"unknown phase {name!r}, expected one of {PHASES}") from None


def _phase_codes(names) -> np.ndarray:
    """``_phase_code`` of each name in a sequence, compared as one array."""
    names = np.asarray(names, dtype=str)
    codes = np.full(names.shape, -1, dtype=np.int8)
    for code, name in enumerate(PHASES):
        codes[names == name] = code
    unknown = names[codes < 0]
    if len(unknown):
        _phase_code(str(unknown[0]))  # raises, naming the first unknown name
    return codes


class TelemetryLog:
    """Ordered row store; appends must carry strictly increasing time.

    ``capacity`` preallocates that many rows, so a log of known length
    (one row per simulation step) is never copied while it grows.
    """

    def __init__(
        self,
        records: Optional[Iterable[TelemetryRecord]] = None,
        *,
        capacity: int = 0,
    ):
        self._cols = [np.empty(capacity, dtype) for dtype in _DTYPES]
        self._n = 0
        if records is not None:
            for record in records:
                self.append(record)

    def append(self, record: TelemetryRecord) -> None:
        n = self._n
        if n and not record.t > self._cols[0][n - 1]:
            raise ValueError(
                f"non-monotonic time: {record.t} after {self._cols[0][n - 1]}"
            )
        phase = _phase_code(record.phase)
        if n == len(self._cols[0]):
            self._reserve(n + 1)
        t, caz, cel, raz, rel, db, volts, phases, cycles = self._cols
        t[n] = record.t
        caz[n] = record.commanded_az
        cel[n] = record.commanded_el
        raz[n] = record.readback_az
        rel[n] = record.readback_el
        db[n] = record.beacon_db
        volts[n] = record.receiver_volts
        phases[n] = phase
        cycles[n] = record.cycle_index
        self._n = n + 1

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
        holds phase names, as in ``TelemetryRecord``.
        """
        t = np.asarray(t, dtype=np.float64)
        k = len(t)
        if k == 0:
            return
        n = self._n
        if not (np.diff(t) > 0).all() or (n and not t[0] > self._cols[0][n - 1]):
            last = self._cols[0][n - 1] if n else None
            raise ValueError(f"non-monotonic time in block starting {t[0]} after {last}")
        phase = _phase_code(phase) if isinstance(phase, str) else _phase_codes(phase)
        columns = (
            t, commanded_az, commanded_el, readback_az, readback_el,
            beacon_db, receiver_volts, phase, cycle_index,
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

    def __iter__(self) -> Iterator[TelemetryRecord]:
        for start in range(0, self._n, _BLOCK_ROWS):
            yield from self._records(start, min(start + _BLOCK_ROWS, self._n))

    def __getitem__(self, index):
        if isinstance(index, slice):
            out = TelemetryLog()
            out._cols = [col[: self._n][index].copy() for col in self._cols]
            out._n = len(out._cols[0])
            return out
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("telemetry index out of range")
        return next(self._records(i, i + 1))

    def _records(self, start: int, stop: int) -> Iterator[TelemetryRecord]:
        cols = [col[start:stop].tolist() for col in self._cols]
        cols[_PHASE] = _phase_names(cols[_PHASE])
        return map(TelemetryRecord._make, zip(*cols))

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
) -> list[tuple[float, float]]:
    """Every decimation-th (readback_az, readback_el) pair, order preserved."""
    if decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {decimation}")
    az = log.column("readback_az")[::decimation].tolist()
    el = log.column("readback_el")[::decimation].tolist()
    return list(zip(az, el))


def format_floats(values: list[float]) -> list[str]:
    """Shortest exact decimal form of each value, padded to >= 6 decimal places."""
    if not values:
        return []
    # The repr of a list holds the repr of each float, made in one C call.
    texts = repr(values)[1:-1].split(", ")
    return [
        s
        if len(s) - s.find(".") > 6 or "e" in s or "." not in s
        else s + "0" * (7 - len(s) + s.find("."))
        for s in texts
    ]


def format_float(value: float) -> str:
    """Shortest exact decimal form, padded to >= 6 decimal places."""
    return format_floats([float(value)])[0]


def _column_texts(
    values: np.ndarray, format_many: Callable[[list], list[str]]
) -> list[str]:
    """Text of each value; a run of bit-identical values is formatted once.

    Runs compare bit patterns, so -0.0 and 0.0 (equal, printed
    differently) stay apart.
    """
    bits = values.view(f"u{values.itemsize}")
    starts = np.empty(len(bits), dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array(format_many(values[starts].tolist()), dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


def _phase_names(codes: list[int]) -> list[str]:
    return [PHASES[code] for code in codes]


def _ints(values: list[int]) -> list[str]:
    return list(map(str, values))


def write_csv(log: TelemetryLog, path: str) -> None:
    formats = (format_floats,) * 7 + (_phase_names, _ints)
    cols = [log.column(name) for name in FIELDS]
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(log), _BLOCK_ROWS):
            block = [
                _column_texts(col[start : start + _BLOCK_ROWS], fmt)
                for col, fmt in zip(cols, formats)
            ]
            fh.write("\n".join(map(",".join, zip(*block))))
            fh.write("\n")


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
