"""Peak estimation from beacon samples.

With the quadratic coefficients known a priori, the beacon surface is
linear in the remaining parameters. Moving the squared terms to the
left side, each sample (az_i, el_i, L_i) yields one linear equation

    L_i - k_az*az_i**2 - k_el*el_i**2 = b1*az_i + b2*el_i + b3

whose coefficient vector b encodes the peak:

    b = [-2*k_az*peak_az, -2*k_el*peak_el,
         peak_level + k_az*peak_az**2 + k_el*peak_el**2]

``fit_peak`` is the one fit, for the tracker's cycles and for ``steptrack
fit``'s logged windows. It centres the samples, builds their regression
rows (``regression_row``), solves them by batch least squares (``ls_fit``)
or by the recursive filter (``rls_init``, ``rls_update``), recovers the
peak (``recover_peak``) and shifts it back. The recursive filter keeps
only a 3-vector and a 3x3 gain matrix, optionally down-weighting old
samples through a forgetting factor, which both bounds memory and lets the
fit follow a slowly moving peak.

The functions take all the samples at once, as arrays, but ``fit_peak``,
``ls_fit`` and ``rls_update`` read them in blocks of ``_BLOCK_ROWS`` rows:
each block's offsets, responses and products are computed from slices of
the inputs, each sum is one ``math.fsum`` over the blocks in turn, the
recursion reads the blocks' rows as one stream, and ``fit_peak`` builds no
regression rows. A fit then holds a few blocks of scratch memory however
long its window, and gives the bits that one pass over whole arrays gives.
A one-block window, such as a tracker cycle's, has its offsets and
responses computed once for all the passes.

A filter that diverges (a gain matrix wound up by a long stationary
window) may end with every entry NaN; once a step gives such a state back
bit for bit, ``rls_update`` returns it without running the remaining rows,
which would give the same bits again.

Both solvers do their arithmetic in Python floats, in a fixed order, with
no BLAS or LAPACK call, so their bits do not depend on the kernel that
numpy's BLAS picks for the CPU. The recursion keeps the 3 coefficients
and the 6 distinct entries of the symmetric gain matrix as floats across
the rows. Its rows are the model's [a, e, 1], read as (a, e, y) with the
response y; a product with the constant 1 is its other factor, bit for
bit, so the recursion leaves those products out. ``ls_fit`` and
``rls_update``, which take the regressors as an (n, 3) array, reject any
third column other than 1. A row that is not finite leaves every
coefficient inf or NaN, so the rows are checked only when the recursion
ends with such coefficients. The batch fit forms the normal equations
with ``math.fsum``, which rounds each sum correctly and so independently
of order, and solves them in closed form; the reciprocal 1-norm condition
of those equations, computed from the same sums, is what ``RCOND_LIMIT``
bounds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .beacon import QuadraticCoefficients

# Reciprocal 1-norm condition of the centred normal equations (the Gram
# matrix of the regressors) below which the positions are treated as
# rank deficient. The Gram matrix's condition is the square of the
# regressors', but the limit is not squared: rounding while the sums are
# formed floors the computed figure near 1e-16, so 1e-24 would never
# trip. So 1e-12 here stands for about 1e-6 on the regressors. Rectangle
# patterns sit near 1e-3, so any trip indicates a broken pattern.
RCOND_LIMIT = 1e-12

# Smallest usable quadratic-coefficient magnitude, dB/deg^2. Below it
# the peak recovery divides by a near-zero curvature.
DEFAULT_COEFF_FLOOR = 0.01

DEFAULT_RLS_DELTA = 1e4

# The solvers ``fit_peak`` selects between, by name.
ESTIMATORS = ("batch-ls", "rls")

# Rows a fit reads at a time. A block's scratch arrays (offsets, responses,
# products) take 32 KiB each, so a fit's peak memory stays flat in its
# window's length; the tracker's cycle fits are one block each.
_BLOCK_ROWS = 4096


class EstimationError(Exception):
    """A fit that gives no peak; the message says why."""


@dataclass(frozen=True)
class PeakEstimate:
    azimuth: float  # deg
    elevation: float  # deg
    level: float  # dB


@dataclass(frozen=True)
class RlsState:
    """Recursive filter memory: coefficients, gain matrix, forgetting factor.

    ``cov`` is the symmetric gain matrix. The recursion reads its upper
    triangle, updates the 6 distinct entries as floats and writes them
    back to both triangles, so it is symmetric bit for bit and never
    needs re-symmetrizing.
    """

    coeffs: np.ndarray  # shape (3,)
    cov: np.ndarray  # shape (3, 3)
    forgetting: float


def regression_row(
    az: np.ndarray, el: np.ndarray, level: np.ndarray, k: QuadraticCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Map beacon samples to their linear-regression rows: the (n, 3)
    regressors [az, el, 1] and the n responses."""
    return np.column_stack([az, el, np.ones(len(az))]), _response(az, el, level, k)


def _response(
    az: np.ndarray, el: np.ndarray, level: np.ndarray, k: QuadraticCoefficients
) -> np.ndarray:
    """The regression responses of samples (az, el, level): the level less
    the known quadratic terms."""
    return level - k.k_az * az * az - k.k_el * el * el


def _require_samples(n: int) -> None:
    if n < 3:
        raise EstimationError(f"need at least 3 samples, got {n}")


def _require_model_rows(x: np.ndarray) -> None:
    """Raise ValueError naming the first row of regressors x (n, 3) whose
    third column is not 1.0: the model's rows are [a, e, 1]."""
    ones = x[:, 2] == 1.0
    if not ones.all():
        i = int(np.argmin(ones))
        raise ValueError(f"regression row {i} is not [a, e, 1]: regressors {x[i]}")


def _blocks(n: int) -> list[slice]:
    """The row slices of an n-row window, ``_BLOCK_ROWS`` rows each."""
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


# A function that reads a window's blocks of columns afresh at each call.
_Window = Callable[[], Iterable[tuple[np.ndarray, ...]]]


def _held(n: int, window: _Window) -> _Window:
    """``window`` for an n-row window, or for a one-block window, such as a
    tracker cycle's, a function that gives back the block it read once."""
    if n > _BLOCK_ROWS:
        return window
    block = tuple(window())
    return lambda: block


def _fsum(blocks: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of the values of 1-D arrays, taken in turn: the
    bits of one sum over their concatenation. NaN where it meets inf - inf
    or overflows. The floats are read through memoryviews, with no list."""
    try:
        return math.fsum(chain.from_iterable(map(memoryview, blocks)))
    except (OverflowError, ValueError):
        return math.nan


def ls_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficient vector for regressors x (n, 3) and responses y.

    The angle columns are shifted to their means, which keeps the solve
    well conditioned at large absolute pointing angles, and the 3x3
    normal equations of the shifted rows are solved in closed form
    (adjugate over determinant). Every sum is a ``math.fsum``.

    Raises ValueError naming the first row whose third regressor is not 1.
    Raises EstimationError for fewer than 3 rows and when the positions
    are collinear: the determinant of the normal equations is not
    positive, or their reciprocal condition is below RCOND_LIMIT.
    """
    _require_model_rows(x)
    n = len(x)
    _require_samples(n)
    return np.array(_solve(n, lambda: _columns(x, y)))


def _columns(x: np.ndarray, y: np.ndarray) -> Iterable[tuple[np.ndarray, ...]]:
    """The blocks (a, e, y) of regressors x (n, 3) and responses y."""
    return ((x[s, 0], x[s, 1], y[s]) for s in _blocks(len(x)))


def _solve(n: int, window: _Window) -> tuple[float, float, float]:
    """``ls_fit`` over an n-row window: ``window()`` reads its blocks
    (a, e, y) of the first two regressor columns and the responses. The
    third regressor is 1 in every row."""
    mean_az = _fsum(a for a, _, _ in window()) / n
    mean_el = _fsum(e for _, e, _ in window()) / n
    centred = _held(n, lambda: ((a - mean_az, e - mean_el, y) for a, e, y in window()))

    def total(i: int, j: int | None = None) -> float:
        """Sum over the window of column i of (a, e, y), the centred angles
        and the response, times column j (none: times 1)."""
        return _fsum(c[i] if j is None else c[i] * c[j] for c in centred())

    saa, sae, see, sa, se = total(0, 0), total(0, 1), total(1, 1), total(0), total(1)
    say, sey, sy = total(0, 2), total(1, 2), total(2)
    # The adjugate of the symmetric Gram matrix [[saa, sae, sa],
    # [sae, see, se], [sa, se, n]], by its 6 distinct cofactors.
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
    return b0, b1, b2 - b0 * mean_az - b1 * mean_el


def recover_peak(beta: Sequence[float], k: QuadraticCoefficients) -> PeakEstimate:
    """Invert the coefficient vector back to (peak_az, peak_el, peak_level).

    Raises EstimationError if either curvature's magnitude is below
    ``DEFAULT_COEFF_FLOOR``.
    """
    if abs(k.k_az) < DEFAULT_COEFF_FLOOR or abs(k.k_el) < DEFAULT_COEFF_FLOOR:
        raise EstimationError(
            f"|k_az|={abs(k.k_az):.3g}, |k_el|={abs(k.k_el):.3g} "
            f"below floor {DEFAULT_COEFF_FLOOR}"
        )
    az = -beta[0] / (2.0 * k.k_az)
    el = -beta[1] / (2.0 * k.k_el)
    level = beta[2] - k.k_az * az * az - k.k_el * el * el
    return PeakEstimate(azimuth=float(az), elevation=float(el), level=float(level))


def rls_init(forgetting: float, delta: float = DEFAULT_RLS_DELTA) -> RlsState:
    """Fresh filter state: zero coefficients, delta-scaled identity gain."""
    return _rls_state(_fresh(forgetting, delta))


# The recursion's filter memory as floats: the 3 coefficients, the upper
# triangle of the gain matrix row by row (p00, p01, p02, p11, p12, p22) and
# the forgetting factor.
_Floats = tuple[float, ...]


def _fresh(forgetting: float, delta: float) -> _Floats:
    """``rls_init``'s state as floats, with the bits of delta * I."""
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    on, off = float(delta), float(delta) * 0.0
    return 0.0, 0.0, 0.0, on, off, off, on, off, on, float(forgetting)


def _rls_state(floats: _Floats) -> RlsState:
    """The filter state held as floats, as an ``RlsState``."""
    c0, c1, c2, p00, p01, p02, p11, p12, p22, lam = floats
    cov = np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])
    return RlsState(coeffs=np.array([c0, c1, c2]), cov=cov, forgetting=lam)


def _rls(state: _Floats, rows: Iterable[tuple[float, float, float]]) -> tuple[_Floats, float]:
    """The RLS recursion from a state held as floats over the model's rows
    [a, e, 1], given as (a, e, y) with y the response, in order: the final
    state and the last prediction residual (NaN for no rows).

    Per row, in this order: gain-matrix product px = P x, denominator
    lam + x.px, gain vector px / denominator, residual, coefficient
    correction, and the forgetting-scaled downdate (P - g px^T) / lam of
    the 6 distinct entries of P. A product with the third regressor is its
    other factor: v * 1.0 is v bit for bit, inf and NaN included. Stops
    once the state is an all-NaN fixed point (see ``_nan_fixed_point``);
    only a NaN residual triggers that check, so a healthy run pays one
    float compare a row.
    """
    c0, c1, c2, p00, p01, p02, p11, p12, p22, lam = state
    r = math.nan
    for a, e, y in rows:
        px0 = p00 * a + p01 * e + p02
        px1 = p01 * a + p11 * e + p12
        px2 = p02 * a + p12 * e + p22
        d = lam + (a * px0 + e * px1 + px2)
        try:
            g0 = px0 / d
            g1 = px1 / d
            g2 = px2 / d
        except ZeroDivisionError:
            with np.errstate(all="ignore"):
                g0, g1, g2 = (np.array([px0, px1, px2]) / d).tolist()
        r = y - (a * c0 + e * c1 + c2)
        if r != r:  # NaN
            before = (c0, c1, c2, p00, p01, p02, p11, p12, p22)
        c0 += g0 * r
        c1 += g1 * r
        c2 += g2 * r
        p00 = (p00 - g0 * px0) / lam
        p01 = (p01 - g0 * px1) / lam
        p02 = (p02 - g0 * px2) / lam
        p11 = (p11 - g1 * px1) / lam
        p12 = (p12 - g1 * px2) / lam
        p22 = (p22 - g2 * px2) / lam
        if r != r and _nan_fixed_point(before, (c0, c1, c2, p00, p01, p02, p11, p12, p22)):
            break
    return (c0, c1, c2, p00, p01, p02, p11, p12, p22, lam), r


def _nan_fixed_point(before: tuple[float, ...], after: tuple[float, ...]) -> bool:
    """Whether the state before and after a step hold one and the same NaN
    bit pattern in every entry.

    The step then gave the state back bit for bit, all NaN. Every operation
    of any later step has a NaN operand (its rows are finite), so it returns
    the same bits again, and the rest of the run can be skipped.
    """
    values = before + after
    bits = struct.pack(f"{len(values)}d", *values)
    return math.isnan(values[0]) and bits == bits[:8] * len(values)


def rls_update(state: RlsState, x: np.ndarray, y: np.ndarray) -> tuple[RlsState, float]:
    """The recursion over each row of regressors x (n, 3) and responses y, in
    order: the new state and the last row's prediction residual.

    Raises ValueError naming the first row whose third regressor is not 1,
    or else the first row that is not finite, before the recursion has
    given any state back. Returns early, with the same bits, once the state
    is an all-NaN fixed point.
    """
    _require_model_rows(x)
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.cov.tolist()
    start = (*state.coeffs.tolist(), p00, p01, p02, p11, p12, p22, float(state.forgetting))
    floats, r = _recursion(start, lambda: _columns(x, y))
    return _rls_state(floats), r


def _recursion(state: _Floats, window: _Window) -> tuple[_Floats, float]:
    """``_rls`` over a window's rows: ``window()`` reads its blocks (a, e, y)
    of the first two regressor columns and the responses.

    Raises ValueError naming the window's first row that is not finite. Such
    a row makes its residual inf or NaN, and with it every coefficient for
    good (c += g * r), so the rows need checking only when the coefficients
    come out non-finite: then they are checked block by block, including
    any that a recursion stopped at its NaN fixed point left unread.
    """
    rows = chain.from_iterable(zip(*map(memoryview, block)) for block in window())
    result = _rls(state, rows)
    if not all(map(math.isfinite, result[0][:3])):
        for block in window():
            _require_finite(*block)
    return result


def _require_finite(a: np.ndarray, e: np.ndarray, y: np.ndarray) -> None:
    """Raise ValueError naming the first row of columns (a, e, y) that is
    not finite."""
    finite = np.isfinite(a) & np.isfinite(e) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"non-finite regression row: regressors "
            f"{np.array([a[i], e[i], 1.0])}, response {y[i]}"
        )


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
    collapses along a near-degenerate direction. Raises EstimationError
    when the fit fails, such as a curvature below ``DEFAULT_COEFF_FLOOR``
    or a diverged recursion, whose peak is not finite.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    n = len(az)
    _require_samples(n)
    caz, cel = centre

    def offsets():
        for s in _blocks(n):
            a, e = az[s] - caz, el[s] - cel
            yield a, e, _response(a, e, level[s], k)
    window = _held(n, offsets)

    if estimator == "batch-ls":
        beta = _solve(n, window)
    else:
        state = _fresh(forgetting, delta)
        if prior is not None:
            # The exact inverse of ``recover_peak``, in the centred frame,
            # as floats: a numpy curvature would make them numpy scalars.
            daz, del_ = prior.azimuth - caz, prior.elevation - cel
            state = (
                float(-2.0 * k.k_az * daz),
                float(-2.0 * k.k_el * del_),
                float(prior.level + k.k_az * daz * daz + k.k_el * del_ * del_),
            ) + state[3:]
        beta = _recursion(state, window)[0][:3]
    local = recover_peak(beta, k)
    peak = PeakEstimate(local.azimuth + caz, local.elevation + cel, local.level)
    if not all(map(math.isfinite, (peak.azimuth, peak.elevation, peak.level))):
        raise EstimationError(f"non-finite estimate {peak}")
    b0, b1, b2 = beta

    def squared_residuals():
        for a, e, y in window():
            r = y - (a * b0 + e * b1 + b2)
            yield r * r
    return peak, math.sqrt(_fsum(squared_residuals()) / n)


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
