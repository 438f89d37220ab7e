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
Each pass keeps the last block it read, so the passes over a one-block
window, such as a tracker cycle's, compute its offsets and responses once.

A filter that diverges (a gain matrix wound up by a long stationary
window) may end with every entry NaN; once a step gives such a state back
bit for bit, ``rls_update`` returns it without running the remaining rows,
which would give the same bits again.

Both solvers do their arithmetic in Python floats, in a fixed order, with
no BLAS or LAPACK call, so their bits do not depend on the kernel that
numpy's BLAS picks for the CPU. The recursion keeps the 3 coefficients
and the 6 distinct entries of the symmetric gain matrix as floats across
the rows. The batch fit forms the normal equations with ``math.fsum``,
which rounds each sum correctly and so independently of order, and
solves them in closed form; the reciprocal 1-norm condition of those
equations, computed from the same sums, is what ``RCOND_LIMIT`` bounds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from typing import Callable, Iterable, TypeVar

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
    """Base class for estimator failures."""


class InsufficientDataError(EstimationError):
    """Fewer samples than unknowns."""


class RankDeficientError(EstimationError):
    """Sample positions do not span the regressor space."""


class DegenerateCoefficientsError(EstimationError):
    """Quadratic coefficient magnitude below the configured floor."""


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
        raise InsufficientDataError(f"need at least 3 samples, got {n}")


def _blocks(n: int) -> list[slice]:
    """The row slices of an n-row window, ``_BLOCK_ROWS`` rows each."""
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


def _fsum(blocks: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of the values of 1-D arrays, taken in turn: the
    bits of one sum over their concatenation. NaN where it meets inf - inf
    or overflows. The floats are read through memoryviews, with no list."""
    try:
        return math.fsum(chain.from_iterable(map(memoryview, blocks)))
    except (OverflowError, ValueError):
        return math.nan


_Block = TypeVar("_Block")


def _last_block(of: Callable[[slice], _Block]) -> Callable[[slice], _Block]:
    """``of``, keeping what it gave for the last row slice: each pass over a
    one-block window, such as a tracker cycle's, reuses that block."""
    last: list = [None, None]

    def block(s: slice) -> _Block:
        if last[0] != s:
            last[:] = s, of(s)
        return last[1]
    return block


def ls_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficient vector for regressors x (n, 3) and responses y.

    The angle columns are shifted to their means, which keeps the solve
    well conditioned at large absolute pointing angles, and the 3x3
    normal equations of the shifted rows are solved in closed form
    (adjugate over determinant). Every sum is a ``math.fsum``.

    Raises InsufficientDataError for fewer than 3 rows and
    RankDeficientError when the positions are collinear: the determinant
    of the normal equations is not positive, or their reciprocal
    condition is below RCOND_LIMIT.
    """
    _require_samples(len(x))
    return _solve(len(x), lambda s: (x[s, 0], x[s, 1]), lambda s: y[s])


def _solve(
    n: int,
    angles: Callable[[slice], tuple[np.ndarray, np.ndarray]],
    response: Callable[[slice], np.ndarray],
) -> np.ndarray:
    """``ls_fit`` over an n-row window read a block at a time: ``angles``
    gives a row slice's first two regressor columns, ``response`` its
    responses. The third regressor is 1 in every row."""
    blocks = _blocks(n)
    mean_az = _fsum(angles(s)[0] for s in blocks) / n
    mean_el = _fsum(angles(s)[1] for s in blocks) / n

    @_last_block
    def centred(s: slice) -> tuple[np.ndarray, np.ndarray]:
        x0, x1 = angles(s)
        return x0 - mean_az, x1 - mean_el

    def total(i: int, j: int | None = None) -> float:
        """Sum over the window of column i of (a, e, y), the centred angles
        and the response, times column j (none: times 1)."""
        def block(s: slice) -> np.ndarray:
            cols = centred(s)
            if 2 in (i, j):
                cols += (response(s),)
            return cols[i] if j is None else cols[i] * cols[j]
        return _fsum(map(block, blocks))

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
        raise RankDeficientError(
            f"sample positions are rank deficient "
            f"(reciprocal condition {rcond:.3e} of the normal equations)"
        )
    b0 = (c00 * say + c01 * sey + c02 * sy) / det
    b1 = (c01 * say + c11 * sey + c12 * sy) / det
    b2 = (c02 * say + c12 * sey + c22 * sy) / det
    return np.array([b0, b1, b2 - b0 * mean_az - b1 * mean_el])


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


def _rls(
    state: RlsState, rows: Iterable[tuple[float, float, float, float]]
) -> tuple[RlsState, float]:
    """The RLS recursion over rows (x0, x1, x2, y) of regressors and response,
    in order: the final state and the last prediction residual (NaN for no rows).

    Per row, in this order: gain-matrix product px = P x, denominator
    lam + x.px, gain vector px / denominator, residual, coefficient
    correction, and the forgetting-scaled downdate (P - g px^T) / lam of
    the 6 distinct entries of P. Stops once the state is an all-NaN fixed
    point (see ``_nan_fixed_point``); only a NaN residual triggers that
    check, so a healthy run pays one float compare a row.
    """
    c0, c1, c2 = state.coeffs.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.cov.tolist()
    lam = state.forgetting
    r = math.nan
    for x0, x1, x2, y in rows:
        px0 = p00 * x0 + p01 * x1 + p02 * x2
        px1 = p01 * x0 + p11 * x1 + p12 * x2
        px2 = p02 * x0 + p12 * x1 + p22 * x2
        d = lam + (x0 * px0 + x1 * px1 + x2 * px2)
        try:
            g0 = px0 / d
            g1 = px1 / d
            g2 = px2 / d
        except ZeroDivisionError:
            with np.errstate(all="ignore"):
                g0, g1, g2 = (np.array([px0, px1, px2]) / d).tolist()
        r = y - (x0 * c0 + x1 * c1 + x2 * c2)
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
    cov = np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])
    return RlsState(coeffs=np.array([c0, c1, c2]), cov=cov, forgetting=lam), r


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

    Raises ValueError naming the first row that is not finite, before the
    recursion has given any state back. Returns early, with the same bits,
    once the state is an all-NaN fixed point.
    """
    return _recursion(state, len(x), lambda s: (x[s, 0], x[s, 1], x[s, 2], y[s]))


def _recursion(
    state: RlsState,
    n: int,
    rows: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[RlsState, float]:
    """``rls_update`` over an n-row window read a block at a time: ``rows``
    gives a row slice's regressor columns and responses."""
    blocks = map(_checked_rows, map(rows, _blocks(n)))
    result = _rls(state, chain.from_iterable(blocks))
    # A recursion stopped at its NaN fixed point leaves blocks unread; they
    # are checked all the same.
    for _ in blocks:
        pass
    return result


def _checked_rows(block: tuple[np.ndarray, ...]) -> Iterable[tuple[float, ...]]:
    """The rows (x0, x1, x2, y) of a block of regressor and response columns.

    Raises ValueError naming the block's first row that is not finite.
    """
    x0, x1, x2, y = block
    finite = np.isfinite(x0) & np.isfinite(x1) & np.isfinite(x2) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"non-finite regression row: regressors "
            f"{np.array([x0[i], x1[i], x2[i]])}, response {y[i]}"
        )
    return zip(*map(memoryview, block))


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

    @_last_block
    def angles(s: slice) -> tuple[np.ndarray, np.ndarray]:
        return az[s] - caz, el[s] - cel

    @_last_block
    def response(s: slice) -> np.ndarray:
        return _response(*angles(s), level[s], k)

    if estimator == "batch-ls":
        beta = _solve(n, angles, response)
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

        def rows(s: slice) -> tuple[np.ndarray, ...]:
            a, e = angles(s)
            return a, e, np.ones(len(a)), response(s)

        beta = _recursion(state, n, rows)[0].coeffs
    local = recover_peak(beta, k)
    peak = PeakEstimate(local.azimuth + caz, local.elevation + cel, local.level)
    if not all(map(math.isfinite, (peak.azimuth, peak.elevation, peak.level))):
        raise EstimationError(f"non-finite estimate {peak}")
    b0, b1, b2 = beta.tolist()

    def squared_residual(s: slice) -> np.ndarray:
        a, e = angles(s)
        r = response(s) - (a * b0 + e * b1 + b2)
        return r * r

    return peak, math.sqrt(_fsum(map(squared_residual, _blocks(n))) / n)


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
