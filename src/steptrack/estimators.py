"""Peak estimation from beacon samples.

With the quadratic coefficients known a priori, the beacon surface is
linear in the remaining parameters. Moving the squared terms to the
left side, each sample (az_i, el_i, L_i) yields one linear equation

    L_i - k_az*az_i**2 - k_el*el_i**2 = b1*az_i + b2*el_i + b3

whose coefficient vector b encodes the peak:

    b = [-2*k_az*peak_az, -2*k_el*peak_el,
         peak_level + k_az*peak_az**2 + k_el*peak_el**2]

``fit_peak`` is the one fit, for the tracker's cycles and for ``steptrack
fit``'s logged windows. It centres the samples, builds the regression rows
(``regression_rows``), solves them by batch least squares (``ls_solve``)
or by the recursive filter (``rls_init``, ``rls_run``), recovers the peak
(``recover_peak``) and shifts it back. The recursive filter keeps only a
3-vector and a 3x3 gain matrix, optionally down-weighting old samples
through a forgetting factor, which both bounds memory and lets the fit
follow a slowly moving peak.

The per-sample forms ``regression_row``, ``ls_fit`` and ``rls_update``
are the references the array forms match bit for bit; ``rls_update`` and
``rls_run`` share the one RLS recursion, ``_rls_step``. A filter that
diverges (a gain matrix wound up by a long stationary window) ends with
every entry NaN; once a step gives such a state back bit for bit,
``rls_run`` returns it without running the remaining rows, which would
give the same bits again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from .antenna import BeaconSample
from .beacon import QuadraticCoefficients

# Reciprocal-condition threshold below which the regressor matrix is
# treated as rank deficient. Rectangle patterns sit far above this, so
# any trip indicates a broken displacement pattern.
RCOND_LIMIT = 1e-12

# Smallest usable quadratic-coefficient magnitude, dB/deg^2. Below it
# the peak recovery divides by a near-zero curvature.
DEFAULT_COEFF_FLOOR = 0.01

DEFAULT_RLS_DELTA = 1e4

# The solvers ``fit_peak`` selects between, by name.
ESTIMATORS = ("batch-ls", "rls")

_EYE3 = np.eye(3)


class EstimationError(Exception):
    """Base class for estimator failures."""


class InsufficientDataError(EstimationError):
    """Fewer samples than unknowns."""


class RankDeficientError(EstimationError):
    """Sample positions do not span the regressor space."""


class DegenerateCoefficientsError(EstimationError):
    """Quadratic coefficient magnitude below the configured floor."""


@dataclass(frozen=True)
class RegressionRow:
    """One sample mapped into the linear regression."""

    regressors: np.ndarray  # [azimuth, elevation, 1.0]
    response: float


@dataclass(frozen=True)
class PeakEstimate:
    azimuth: float  # deg
    elevation: float  # deg
    level: float  # dB


@dataclass(frozen=True)
class RlsState:
    """Recursive filter memory: coefficients, gain matrix, forgetting factor.

    ``cov`` stays symmetric positive-definite; updates re-symmetrize it
    to keep finite-precision drift out.
    """

    coeffs: np.ndarray  # shape (3,)
    cov: np.ndarray  # shape (3, 3)
    forgetting: float


def regression_row(sample: BeaconSample, k: QuadraticCoefficients) -> RegressionRow:
    """Map a beacon sample to its linear-regression row."""
    az, el = sample.azimuth, sample.elevation
    response = sample.level - k.k_az * az * az - k.k_el * el * el
    return RegressionRow(
        regressors=np.array([az, el, 1.0]), response=float(response)
    )


def regression_rows(
    az: np.ndarray, el: np.ndarray, level: np.ndarray, k: QuadraticCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``regression_row``: the (n, 3) regressors and n responses."""
    response = level - k.k_az * az * az - k.k_el * el * el
    return np.column_stack([az, el, np.ones(len(az))]), response


def _require_samples(n: int) -> None:
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {n}")


def ls_fit(rows: Sequence[RegressionRow]) -> np.ndarray:
    """Least-squares coefficient vector for a batch of rows; see ``ls_solve``."""
    return ls_solve(
        np.array([row.regressors for row in rows]),
        np.array([row.response for row in rows]),
    )


def ls_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficient vector for regressors x (n, 3) and responses y.

    Solved through an orthogonal factorization with the angle columns
    shifted to their means, which is the same minimizer as the normal
    equations but keeps the solve well conditioned at large absolute
    pointing angles.

    Raises InsufficientDataError for fewer than 3 rows and
    RankDeficientError when the positions are collinear (reciprocal
    condition estimate below RCOND_LIMIT).
    """
    n = len(x)
    _require_samples(n)
    mean_az = x[:, 0].mean()
    mean_el = x[:, 1].mean()
    shifted = np.column_stack([x[:, 0] - mean_az, x[:, 1] - mean_el, np.ones(n)])
    solution, _, rank, sv = np.linalg.lstsq(shifted, y, rcond=None)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if rank < 3 or rcond < RCOND_LIMIT:
        raise RankDeficientError(
            f"sample positions are rank deficient "
            f"(rank {rank}, reciprocal condition {rcond:.3e})"
        )
    return np.array(
        [
            solution[0],
            solution[1],
            solution[2] - solution[0] * mean_az - solution[1] * mean_el,
        ]
    )


def recover_peak(beta: np.ndarray, k: QuadraticCoefficients) -> PeakEstimate:
    """Invert the coefficient vector back to (peak_az, peak_el, peak_level).

    Raises DegenerateCoefficientsError if either curvature's magnitude is
    below ``DEFAULT_COEFF_FLOOR``.
    """
    if abs(k.k_az) < DEFAULT_COEFF_FLOOR or abs(k.k_el) < DEFAULT_COEFF_FLOOR:
        raise DegenerateCoefficientsError(
            f"|k_az|={abs(k.k_az):.3g}, |k_el|={abs(k.k_el):.3g} "
            f"below floor {DEFAULT_COEFF_FLOOR}"
        )
    az = -beta[0] / (2.0 * k.k_az)
    el = -beta[1] / (2.0 * k.k_el)
    level = beta[2] - k.k_az * az * az - k.k_el * el * el
    return PeakEstimate(azimuth=float(az), elevation=float(el), level=float(level))


def rls_init(forgetting: float, delta: float = DEFAULT_RLS_DELTA) -> RlsState:
    """Fresh filter state: zero coefficients, delta-scaled identity gain."""
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return RlsState(
        coeffs=np.zeros(3), cov=delta * np.eye(3), forgetting=forgetting
    )


def _rls_step(
    coeffs: np.ndarray, p: np.ndarray, lam: float, x: np.ndarray, y: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The RLS recursion: new coefficients, new gain matrix and the residual.

    Applies, in order: normalized gain matrix, gain vector, prediction,
    residual, coefficient correction, and the forgetting-scaled
    downdate of the gain matrix, which is then re-symmetrized.
    """
    px = p @ x
    q = p / (lam + float(x @ px))
    gain = q @ x
    residual = y - float(x @ coeffs)
    new_p = (_EYE3 - gain[:, None] * x) @ p / lam
    return coeffs + gain * residual, 0.5 * (new_p + new_p.T), residual


def rls_update(state: RlsState, row: RegressionRow) -> tuple[RlsState, float]:
    """One recursion step; returns the new state and the prediction residual."""
    if not (np.isfinite(row.regressors).all() and math.isfinite(row.response)):
        raise ValueError(f"non-finite regression row: {row}")
    coeffs, cov, residual = _rls_step(
        state.coeffs, state.cov, state.forgetting, row.regressors, row.response
    )
    return RlsState(coeffs=coeffs, cov=cov, forgetting=state.forgetting), residual


def rls_run(state: RlsState, x: np.ndarray, y: np.ndarray) -> RlsState:
    """``rls_update`` over each row of regressors x (n, 3) and responses y, in order.

    Returns early, with the same bits, once the state is an all-NaN fixed
    point (see ``_nan_fixed_point``). Only a NaN residual triggers that
    check, so a healthy run pays one float compare a row.
    """
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        row = RegressionRow(regressors=x[i], response=float(y[i]))
        raise ValueError(f"non-finite regression row: {row}")
    coeffs, cov, lam = state.coeffs, state.cov, state.forgetting
    for xi, yi in zip(x, y.tolist()):
        new_coeffs, new_cov, residual = _rls_step(coeffs, cov, lam, xi, yi)
        if residual != residual and _nan_fixed_point(coeffs, cov, new_coeffs, new_cov):  # NaN
            break
        coeffs, cov = new_coeffs, new_cov
    return RlsState(coeffs=coeffs, cov=cov, forgetting=lam)


def _nan_fixed_point(*arrays: np.ndarray) -> bool:
    """Whether every entry of the arrays holds one and the same NaN bit pattern.

    Given the state before and after a step, this means the step gave the
    state back bit for bit, all NaN. Every operation of any later step then
    has a NaN operand (its rows are finite), so it returns the same bits
    again, and the rest of the run can be skipped.
    """
    bits = np.concatenate([a.ravel() for a in arrays]).view(np.uint64)
    return math.isnan(arrays[0].flat[0]) and bool((bits == bits[0]).all())


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
    """Absolute peak through readback samples (az, el, level) and the RMS
    of the fit residuals, in dB.

    ``estimator`` is one of ``ESTIMATORS``; "rls" starts from the absolute
    peak ``prior`` when given. The fit runs in offsets from ``centre``: at
    absolute angles like [180.2, 72.05, 1] the recursion's gain matrix
    collapses along a near-degenerate direction. A diverged recursion
    returns a non-finite peak; other failures, such as a curvature below
    ``DEFAULT_COEFF_FLOOR``, raise EstimationError.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    _require_samples(len(az))
    caz, cel = centre
    x, y = regression_rows(az - caz, el - cel, level, k)
    if estimator == "batch-ls":
        beta = ls_solve(x, y)
    else:
        state = rls_init(forgetting, delta)
        if prior is not None:
            # The exact inverse of ``recover_peak``, in the centred frame.
            daz, del_ = prior.azimuth - caz, prior.elevation - cel
            coeffs = np.array([
                -2.0 * k.k_az * daz,
                -2.0 * k.k_el * del_,
                prior.level + k.k_az * daz * daz + k.k_el * del_ * del_,
            ])
            state = RlsState(coeffs=coeffs, cov=state.cov, forgetting=forgetting)
        beta = rls_run(state, x, y).coeffs
    local = recover_peak(beta, k)
    rms = float(np.sqrt(np.mean((y - x @ beta) ** 2)))
    return PeakEstimate(local.azimuth + caz, local.elevation + cel, local.level), rms


def memory_horizon(forgetting: float) -> float:
    """Effective sample memory 1/(1 - forgetting); inf for forgetting = 1.

    Computed in decimal arithmetic so that decimal-specified factors
    give exact horizons (0.98 -> 50, not 49.999...96).
    """
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
    if forgetting == 1.0:
        return math.inf
    return float(Decimal(1) / (Decimal(1) - Decimal(repr(forgetting))))


def rls_recover(state: RlsState, k: QuadraticCoefficients) -> PeakEstimate:
    """Peak implied by the current filter coefficients."""
    return recover_peak(state.coeffs, k)
