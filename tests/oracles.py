"""Per-sample reference forms of the package's formulas.

The package computes each formula once, over arrays of samples. The
functions here take one sample at a time, in plain floats where the
formula allows, and the property tests require the package to match them
bit for bit. ``ls_fit`` and ``rls_update`` take regression rows one by
one and hand them to the package's solvers, so that a fit over many rows
can be checked against the same rows fed one at a time. ``measure``
gives one ``BeaconSample``, and ``regression_row`` takes one.
``DenseTelemetryLog`` stores every telemetry column row by row, as the
package's log did before it stored the step columns as runs, and
``read_csv_rows`` reads a telemetry CSV into one, converting every field of
every row, as ``read_csv`` did before it converted each run's step fields
once.
``closed_loop`` runs the tracking loop one step at a time, the reference
for the package's ``run_scenario``. ``rls_reference`` is the recursion
written out on its own, row by row over whole (n, 3) regressors, with the
third regressor's products that the package's recursion leaves out.
``fit_peak`` is the package's fit as it was before it read its window in
blocks: whole-window arrays for the regression rows, the batch sums, the
finiteness check and the residual, with ``rls_reference`` as its recursion.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from steptrack import estimators
from steptrack.antenna import (
    AntennaState, ReceiverConfig, command, quantize_angle, tick,
)
from steptrack.beacon import ParabolaParams, QuadraticCoefficients, beacon_level
from steptrack.estimators import (
    DEFAULT_RLS_DELTA, ESTIMATORS, RCOND_LIMIT, EstimationError, PeakEstimate, RlsState,
    recover_peak, rls_init,
)
from steptrack.orbit import OrbitConfig
from steptrack import telemetry
from steptrack.telemetry import FIELDS, _check_times, _phase_codes
from steptrack.tracker import StepTracker, TrackerConfig, TrackerPhase


class BeaconSample(NamedTuple):
    """One timestamped measurement; angles are resolver readbacks."""

    t: float
    azimuth: float
    elevation: float
    level: float


def satellite_direction(config: OrbitConfig, t: float) -> tuple[float, float]:
    """True satellite (azimuth, elevation) in degrees at time t seconds."""
    theta = 2.0 * math.pi * t / config.period + config.phase
    drift = config.drift_deg_per_day * t / 86400.0
    if config.axis_mode == "azimuth-major":
        major = config.azimuth_amplitude * math.sin(theta)
        minor = 0.5 * config.elevation_amplitude * math.sin(2.0 * theta)
        return config.center_azimuth + major + drift, config.center_elevation + minor
    major = config.elevation_amplitude * math.sin(theta)
    minor = 0.5 * config.azimuth_amplitude * math.sin(2.0 * theta)
    return config.center_azimuth + minor, config.center_elevation + major + drift


def az_coeff_from_elevation(k_el: float, elevation: float) -> float:
    """Azimuth curvature ``k_el * cos(elevation)**2`` at one elevation.

    Raises ValueError if elevation is outside [0, 90] or k_el >= 0.
    """
    if not 0.0 <= elevation <= 90.0:
        raise ValueError(f"elevation must be in [0, 90] deg, got {elevation}")
    if not k_el < 0:
        raise ValueError(f"k_el must be strictly negative, got {k_el}")
    c = math.cos(math.radians(elevation))
    return k_el * c * c


def read_resolvers(state: AntennaState) -> tuple[float, float]:
    """Resolver-quantized (azimuth, elevation) readback in degrees."""
    return (
        quantize_angle(state.true_azimuth, state.resolver_step),
        quantize_angle(state.true_elevation, state.resolver_step),
    )


def measure(
    state: AntennaState,
    params: ParabolaParams,
    rx: ReceiverConfig,
    t: float,
    rng: np.random.Generator,
) -> BeaconSample:
    """Measure the beacon through the receiver at time t.

    ``params`` must carry the satellite's current direction as its peak.
    The level is evaluated at the true (not readback) pointing, then
    drift and Gaussian noise are added and the floor clamp applied. The
    returned angles are the resolver readbacks. Noise is one draw from
    ``rng``.
    """
    raw = beacon_level(params, state.true_azimuth, state.true_elevation)
    if rx.drift_amplitude != 0.0:
        raw += rx.drift_amplitude * math.sin(2.0 * math.pi * t / rx.drift_period)
    if rx.noise_sigma > 0.0:
        raw += rng.normal(0.0, rx.noise_sigma)
    level = raw if raw > rx.floor_db else rx.floor_db
    az, el = read_resolvers(state)
    return BeaconSample(t=t, azimuth=az, elevation=el, level=level)


def receiver_voltage(level: float, rx: ReceiverConfig) -> float:
    """Affine dB-to-volts telemetry map, clamped to [0, 10] V."""
    v = 10.0 * (level - rx.floor_db) / (rx.max_db - rx.floor_db)
    return min(10.0, max(0.0, v))


@dataclass(frozen=True)
class RegressionRow:
    """One sample mapped into the linear regression."""

    regressors: np.ndarray  # [azimuth, elevation, 1.0]
    response: float


def regression_row(sample: BeaconSample, k: QuadraticCoefficients) -> RegressionRow:
    """Map a beacon sample to its linear-regression row."""
    az, el = sample.azimuth, sample.elevation
    response = sample.level - k.k_az * az * az - k.k_el * el * el
    return RegressionRow(
        regressors=np.array([az, el, 1.0]), response=float(response)
    )


def ls_fit(rows: Sequence[RegressionRow]) -> np.ndarray:
    """Least-squares coefficient vector for a batch of rows."""
    return estimators.ls_fit(
        np.array([row.regressors for row in rows]),
        np.array([row.response for row in rows]),
    )


def rls_update(state: RlsState, row: RegressionRow) -> tuple[RlsState, float]:
    """One recursion step; returns the new state and the prediction residual."""
    return estimators.rls_update(
        state, row.regressors[None, :], np.array([row.response])
    )


def _fsum(values: np.ndarray) -> float:
    try:
        return math.fsum(memoryview(values))
    except (OverflowError, ValueError):
        return math.nan


def _whole_ls_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The batch solve with every sum taken over a whole-window array."""
    n = len(x)
    mean_az = _fsum(x[:, 0]) / n
    mean_el = _fsum(x[:, 1]) / n
    a = x[:, 0] - mean_az
    e = x[:, 1] - mean_el
    saa, sae, see, sa, se = map(_fsum, (a * a, a * e, e * e, a, e))
    say, sey, sy = map(_fsum, (a * y, e * y, y))
    c00 = see * n - se * se
    c01 = se * sa - sae * n
    c02 = sae * se - see * sa
    c11 = saa * n - sa * sa
    c12 = sae * sa - saa * se
    c22 = saa * see - sae * sae
    det = saa * c00 + sae * c01 + sa * c02
    rcond = 0.0
    if det > 0.0:
        gram_norm = max(abs(saa) + abs(sae) + abs(sa), abs(sae) + abs(see) + abs(se),
                        abs(sa) + abs(se) + n)
        adj_norm = max(abs(c00) + abs(c01) + abs(c02), abs(c01) + abs(c11) + abs(c12),
                       abs(c02) + abs(c12) + abs(c22))
        rcond = det / (gram_norm * adj_norm)
    if not rcond >= RCOND_LIMIT:
        raise EstimationError(
            f"sample positions are rank deficient "
            f"(reciprocal condition {rcond:.3e} of the normal equations)"
        )
    b0 = (c00 * say + c01 * sey + c02 * sy) / det
    b1 = (c01 * say + c11 * sey + c12 * sy) / det
    b2 = (c02 * say + c12 * sey + c22 * sy) / det
    return np.array([b0, b1, b2 - b0 * mean_az - b1 * mean_el])


def rls_reference(state: RlsState, x: np.ndarray, y: np.ndarray) -> RlsState:
    """The recursion written out row by row over regressors x (n, 3) and
    responses y, with every product of the third regressor, after one
    finiteness check of the whole window. It runs every row: past an all-NaN
    fixed point each row gives the same bits back."""
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite regression row: regressors {x[i]}, response {y[i]}")
    c0, c1, c2 = state.coeffs.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.cov.tolist()
    lam = state.forgetting
    for (x0, x1, x2), yi in zip(x.tolist(), y.tolist()):
        px0 = p00 * x0 + p01 * x1 + p02 * x2
        px1 = p01 * x0 + p11 * x1 + p12 * x2
        px2 = p02 * x0 + p12 * x1 + p22 * x2
        d = lam + (x0 * px0 + x1 * px1 + x2 * px2)
        if d == 0.0:  # IEEE division: +-inf, or NaN for 0 / 0
            with np.errstate(all="ignore"):
                g0, g1, g2 = (np.array([px0, px1, px2]) / d).tolist()
        else:
            g0, g1, g2 = px0 / d, px1 / d, px2 / d
        r = yi - (x0 * c0 + x1 * c1 + x2 * c2)
        c0, c1, c2 = c0 + g0 * r, c1 + g1 * r, c2 + g2 * r
        p00, p01, p02 = (p00 - g0 * px0) / lam, (p01 - g0 * px1) / lam, (p02 - g0 * px2) / lam
        p11, p12 = (p11 - g1 * px1) / lam, (p12 - g1 * px2) / lam
        p22 = (p22 - g2 * px2) / lam
    cov = np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])
    return RlsState(coeffs=np.array([c0, c1, c2]), cov=cov, forgetting=lam)


def fit_peak(
    az: np.ndarray,
    el: np.ndarray,
    level: np.ndarray,
    centre: tuple[float, float],
    k: QuadraticCoefficients,
    estimator: str,
    forgetting: float = 1.0,
    delta: float = DEFAULT_RLS_DELTA,
    prior: PeakEstimate | None = None,
) -> tuple[PeakEstimate, float]:
    """``estimators.fit_peak`` over whole-window arrays: the (n, 3)
    regression rows, the batch sums, the finiteness check and the residual."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if len(az) < 3:
        raise EstimationError(f"need at least 3 samples, got {len(az)}")
    caz, cel = centre
    x, y = estimators.regression_row(az - caz, el - cel, level, k)
    if estimator == "batch-ls":
        beta = _whole_ls_fit(x, y)
    else:
        state = rls_init(forgetting, delta)
        if prior is not None:
            daz, del_ = prior.azimuth - caz, prior.elevation - cel
            coeffs = np.array([
                -2.0 * k.k_az * daz,
                -2.0 * k.k_el * del_,
                prior.level + k.k_az * daz * daz + k.k_el * del_ * del_,
            ])
            state = RlsState(coeffs=coeffs, cov=state.cov, forgetting=forgetting)
        beta = rls_reference(state, x, y).coeffs
    local = recover_peak(beta, k)
    peak = PeakEstimate(local.azimuth + caz, local.elevation + cel, local.level)
    if not all(map(math.isfinite, (peak.azimuth, peak.elevation, peak.level))):
        raise EstimationError(f"non-finite estimate {peak}")
    b0, b1, b2 = beta.tolist()
    residual = y - (x[:, 0] * b0 + x[:, 1] * b1 + x[:, 2] * b2)
    return peak, math.sqrt(_fsum(residual * residual) / len(y))


class DenseTelemetryLog:
    """Columnar row store with every column dense, one value per row.

    Takes rows through ``extend`` as ``TelemetryLog`` does, with the same
    time-order check, and gives each column back with ``column``.
    """

    _DTYPES = (np.float64,) * 7 + (np.int8, np.int64)

    def __init__(self):
        self._cols = [np.empty(0, dtype) for dtype in self._DTYPES]
        self._n = 0

    def extend(self, t, *fields) -> None:
        t = np.asarray(t, dtype=np.float64)
        k = len(t)
        if k == 0:
            return
        n = self._n
        if not (t[1:] > t[:-1]).all() or (n and not t[0] > self._cols[0][n - 1]):
            raise ValueError(f"non-monotonic time in block starting {t[0]}")
        *floats, phase, cycle_index = fields
        columns = (t, *floats, _phase_codes(phase), cycle_index)
        self._cols = [
            np.concatenate([col[:n], np.empty(k, col.dtype)]) for col in self._cols
        ]
        for col, values in zip(self._cols, columns):
            col[n : n + k] = values
        self._n = n + k

    def column(self, name: str) -> np.ndarray:
        return self._cols[FIELDS.index(name)][: self._n]

    def __len__(self) -> int:
        return self._n


def read_csv_rows(path) -> DenseTelemetryLog:
    """``read_csv`` in one process, every field of every row converted.

    Each block of ``telemetry._blocks`` goes through one ``np.loadtxt`` of
    ``telemetry._CSV_ROW``. If that raises ValueError, each of its lines
    goes through one in turn, and the first line that does not parse or
    does not go into the log (an unknown phase, a time out of order or
    not finite) raises the ValueError ``read_csv`` raises.
    """
    log = DenseTelemetryLog()

    def put(lines):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a block of blank lines
            rows = np.loadtxt(
                lines, delimiter=",", comments=None, ndmin=1, dtype=telemetry._CSV_ROW
            )
        if len(rows):
            _check_times(rows["t"], log.column("t")[-1] if len(log) else None)
            log.extend(*(rows[name] for name in FIELDS))

    with open(path, "rb") as fh:
        line_no = 2
        for text in telemetry._blocks(fh, telemetry._skip_header(fh), math.inf):
            lines = io.StringIO(text.decode(), newline="").readlines()
            try:
                put(lines)
            except ValueError as exc:
                for i, line in enumerate(lines):
                    try:
                        put([line])
                    except ValueError as line_exc:
                        why = str(line_exc).replace(" at row 1", "").replace(" at row 0", "")
                        raise ValueError(
                            f"malformed telemetry line {line_no + i}: {line.rstrip()!r}: {why}"
                        ) from None
                raise ValueError(
                    f"malformed telemetry line in the block from line {line_no}: {exc}"
                ) from None
            line_no += len(lines)
    return log


class LoopStep(NamedTuple):
    """One step of ``closed_loop``, seen after the plant's tick."""

    tracker: StepTracker
    sample: BeaconSample  # measured on the pose before the tick
    command: tuple[float, float] | None  # the tracker's, at this step
    target: tuple[float, float]  # the slew target the plant ticked toward
    plant: AntennaState  # after the tick
    samples: list  # the current cycle's fit samples (az, el, level) so far


def closed_loop(
    orbit: OrbitConfig,
    plant: AntennaState,
    rx: ReceiverConfig,
    config: TrackerConfig,
    duration: float,
    peak_level_db: float | None = None,
) -> Iterator[LoopStep]:
    """The tracking loop one step at a time, for ``duration`` seconds.

    Each step measures the beacon at the true pose (the surface peaks at
    the satellite direction with level ``peak_level_db``, the receiver's
    max_db when omitted, and curvature ``config.k_el``), hands the tracker
    the time and the readbacks, or at ESTIMATE the cycle's samples, checks
    the command with ``command`` and ticks the plant toward the slew
    target. The loop keeps the cycle's samples: those the tracker marks
    ``collected``.
    """
    peak = rx.max_db if peak_level_db is None else peak_level_db
    tracker = StepTracker(config, plant)
    target = plant.true_azimuth, plant.true_elevation
    rng = np.random.default_rng(rx.rng_seed)
    dt = config.sample_interval
    samples: list = []
    for i in range(round(duration / dt)):
        t = i * dt
        sat_az, sat_el = satellite_direction(orbit, t)
        field = ParabolaParams(
            az_coeff_from_elevation(config.k_el, sat_el), config.k_el, sat_az, sat_el, peak
        )
        sample = measure(plant, field, rx, t, rng)
        if tracker.phase is TrackerPhase.ESTIMATE:
            cmd = tracker.estimate(*np.reshape(samples, (-1, 3)).T).command
        else:
            cycle = tracker.cycle_index
            cmd = tracker.step(t, sample.azimuth, sample.elevation)
            if tracker.cycle_index != cycle:
                samples = []
            if tracker.collected:
                samples.append((sample.azimuth, sample.elevation, sample.level))
        if cmd is not None:
            command(plant, *cmd)
            target = cmd
        plant = tick(plant, *target, dt)
        yield LoopStep(tracker, sample, cmd, target, plant, samples)
