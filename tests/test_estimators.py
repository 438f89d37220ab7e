"""Estimator tests.

Batch fits are checked against an explicit normal-equations oracle
(inv(X'X) X'Y computed directly), peak recovery against forward
evaluation of the coefficient definition, and the recursive filter
against the batch solution it must reproduce at forgetting 1.
"""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from steptrack import estimators
from steptrack.beacon import (
    ParabolaParams, QuadraticCoefficients, az_coeff_from_elevation, beacon_level,
)
from steptrack.estimators import (
    ESTIMATORS,
    EstimationError,
    PeakEstimate,
    RlsState,
    ls_fit,
    fit_peak,
    memory_horizon,
    recover_peak,
    regression_row,
    rls_init,
    rls_recover,
    rls_update,
)

import oracles


def _rows_from_parabola(k, peak_az, peak_el, peak_level, positions):
    """Regression rows (x, y) of noiseless samples of the surface at positions."""
    az, el = np.array(positions, dtype=float).reshape(-1, 2).T
    params = ParabolaParams(
        k_az=k.k_az, k_el=k.k_el,
        peak_az=peak_az, peak_el=peak_el, peak_level=peak_level,
    )
    return regression_row(az, el, beacon_level(params, az, el), k)


def _normal_equations_oracle(x, y):
    return np.linalg.inv(x.T @ x) @ x.T @ y


def _one_row(az, el, level, k):
    return regression_row(np.array([az]), np.array([el]), np.array([level]), k)


RECT = [(0.5, 1.9), (1.5, 1.9), (1.5, 2.1), (0.5, 2.1)]
K12 = QuadraticCoefficients(k_az=-1.0, k_el=-2.0)


# -- regression rows -----------------------------------------------------------

def test_row_at_origin_keeps_level():
    x, y = _one_row(0.0, 0.0, 5.0, QuadraticCoefficients(-1.0, -11.4))
    assert x.tolist() == [[0.0, 0.0, 1.0]]
    assert y.tolist() == [5.0]


def test_row_removes_azimuth_quadratic():
    _, y = _one_row(1.0, 0.0, 2.0, QuadraticCoefficients(-1.0, -11.4))
    assert y[0] == pytest.approx(3.0, abs=1e-12)


def test_row_removes_both_quadratics():
    _, y = _one_row(2.0, 1.0, 0.0, QuadraticCoefficients(-1.0, -2.0))
    assert y[0] == pytest.approx(6.0, abs=1e-12)


# -- batch fit -------------------------------------------------------------------

def test_ls_fit_rectangle_matches_definition():
    # forward evaluation of the coefficient definition:
    # [-2*(-1)*1, -2*(-2)*2, 3 + (-1)*1 + (-2)*4] = [2, 8, -6]
    beta = ls_fit(*_rows_from_parabola(K12, 1.0, 2.0, 3.0, RECT))
    assert beta == pytest.approx([2.0, 8.0, -6.0], abs=1e-9)


def test_ls_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    k = QuadraticCoefficients(-1.1, -11.4)
    for _ in range(20):
        positions = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        x, y = _rows_from_parabola(k, 0.3, -0.2, 4.0, positions)
        # perturb responses so the fit is not trivially exact
        y = y + rng.normal(0, 0.1, size=len(y))
        assert ls_fit(x, y) == pytest.approx(_normal_equations_oracle(x, y), abs=1e-8)


def test_ls_fit_identical_rows_rank_deficient():
    rows = _rows_from_parabola(K12, 1.0, 2.0, 3.0, [(0.5, 1.9)] * 5)
    with pytest.raises(EstimationError, match="rank deficient"):
        ls_fit(*rows)


def test_ls_fit_collinear_rows_rank_deficient():
    positions = [(0.1 * i, 0.2 * i) for i in range(6)]
    rows = _rows_from_parabola(K12, 1.0, 2.0, 3.0, positions)
    with pytest.raises(EstimationError, match="rank deficient"):
        ls_fit(*rows)


def test_ls_fit_insufficient_data():
    rows = _rows_from_parabola(K12, 1.0, 2.0, 3.0, RECT[:2])
    with pytest.raises(EstimationError, match="need at least 3 samples, got 2"):
        ls_fit(*rows)


@pytest.mark.parametrize("third", [2.0, 0.0, -1.0, math.nan, math.inf])
def test_ls_fit_and_rls_update_take_only_the_model_rows(third):
    # The model's rows are [a, e, 1]. With a third column of 2.0, lstsq's
    # intercept would be half the fit's for a column of ones.
    x, y = _rows_from_parabola(K12, 1.0, 2.0, 3.0, RECT + [(1.0, 2.0)])
    x[3:, 2] = third
    message = re.escape(f"regression row 3 is not [a, e, 1]: regressors {x[3]}")
    with pytest.raises(ValueError, match=message):
        ls_fit(x, y)
    with pytest.raises(ValueError, match=message):
        rls_update(rls_init(0.98), x, y)


def test_ls_fit_permutation_invariant():
    rng = np.random.default_rng(9)
    positions = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12)]
    x, y = _rows_from_parabola(K12, 0.7, -0.4, 1.5, positions)
    beta = ls_fit(x, y)
    for _ in range(5):
        order = rng.permutation(len(y))
        assert ls_fit(x[order], y[order]) == pytest.approx(beta, abs=1e-9)


# -- peak recovery ----------------------------------------------------------------

def test_recover_peak_round_trip():
    peak = recover_peak(np.array([2.0, 8.0, -6.0]), K12)
    assert (peak.azimuth, peak.elevation, peak.level) == pytest.approx((1.0, 2.0, 3.0), abs=1e-12)


def test_recover_peak_at_origin():
    peak = recover_peak(np.array([0.0, 0.0, 4.5]), K12)
    assert (peak.azimuth, peak.elevation, peak.level) == (0.0, 0.0, 4.5)


def test_recover_peak_degenerate_coefficient():
    with pytest.raises(EstimationError, match=r"\|k_az\|=1e-06, \|k_el\|=2 below floor 0\.01"):
        recover_peak(np.array([1.0, 1.0, 1.0]), QuadraticCoefficients(-1e-6, -2.0))


def test_noiseless_exactness_randomized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = QuadraticCoefficients(rng.uniform(-1.2, -1.0), -11.4)
        peak = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-5, 6))
        n = rng.integers(3, 30)
        positions = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        rows = _rows_from_parabola(k, *peak, positions)
        try:
            est = recover_peak(ls_fit(*rows), k)
        except EstimationError as exc:
            if "rank deficient" not in str(exc):
                raise
            continue  # a random draw can be near-collinear
        assert est.azimuth == pytest.approx(peak[0], abs=1e-9)
        assert est.elevation == pytest.approx(peak[1], abs=1e-9)
        assert est.level == pytest.approx(peak[2], abs=1e-9)


def test_level_shift_moves_only_recovered_level():
    rng = np.random.default_rng(23)
    positions = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(10)]
    x, y = _rows_from_parabola(K12, 0.5, -0.3, 2.0, positions)
    base = recover_peak(ls_fit(x, y), K12)
    lifted = recover_peak(ls_fit(x, y + 7.5), K12)
    assert lifted.azimuth == pytest.approx(base.azimuth, abs=1e-9)
    assert lifted.elevation == pytest.approx(base.elevation, abs=1e-9)
    assert lifted.level == pytest.approx(base.level + 7.5, abs=1e-9)


# -- recursive filter ---------------------------------------------------------------

def test_rls_init_state():
    state = rls_init(0.98, 1e4)
    assert list(state.coeffs) == [0.0, 0.0, 0.0]
    assert np.array_equal(state.cov, 1e4 * np.eye(3))
    assert state.forgetting == 0.98


def test_rls_init_validation():
    with pytest.raises(ValueError):
        rls_init(1.5)
    with pytest.raises(ValueError):
        rls_init(0.0)
    with pytest.raises(ValueError):
        rls_init(0.98, 0.0)
    # forgetting 1 is valid: infinite memory
    rls_init(1.0)


def test_rls_zero_innovation_keeps_coeffs():
    state = RlsState(np.array([2.0, 8.0, -6.0]), 10.0 * np.eye(3), 0.95)
    x, _ = _one_row(0.5, 1.9, 0.0, QuadraticCoefficients(-1.0, -2.0))
    new_state, residual = rls_update(state, x, x @ state.coeffs)
    assert residual == 0.0
    assert new_state.coeffs == pytest.approx(state.coeffs, abs=1e-15)
    assert not np.allclose(new_state.cov, state.cov)  # gain still updates


def test_rls_matches_batch_on_rectangle():
    k = K12
    x, y = _rows_from_parabola(k, 1.0, 2.0, 3.0, RECT)
    state, _ = rls_update(rls_init(1.0, 1e8), x, y)
    peak = rls_recover(state, k)
    assert peak.azimuth == pytest.approx(1.0, abs=1e-4)
    assert peak.elevation == pytest.approx(2.0, abs=1e-4)
    assert peak.level == pytest.approx(3.0, abs=1e-4)


def test_rls_repeated_row_shrinks_gain():
    state = rls_init(0.9, 1e4)
    x, y = _one_row(0.5, 1.9, 1.0, QuadraticCoefficients(-1.0, -2.0))

    def directional_gain(s):
        return float(x[0] @ s.cov @ x[0])

    g0 = directional_gain(state)
    state, _ = rls_update(state, x, y)
    g1 = directional_gain(state)
    state, _ = rls_update(state, x, y)
    g2 = directional_gain(state)
    assert g1 < g0
    assert g2 < g1


def test_rls_equivalence_randomized():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        k = QuadraticCoefficients(rng.uniform(-1.2, -1.0), -11.4)
        peak = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-5, 6))
        n = int(rng.integers(4, 101))
        positions = [(peak[0] + rng.uniform(-0.5, 0.5), peak[1] + rng.uniform(-0.5, 0.5)) for _ in range(n)]
        x, y = _rows_from_parabola(k, *peak, positions)
        y = y + rng.normal(0, 0.1, size=len(y))
        batch = recover_peak(ls_fit(x, y), k)
        state, _ = rls_update(rls_init(1.0, 1e8), x, y)
        rec = rls_recover(state, k)
        worst = max(
            worst,
            abs(rec.azimuth - batch.azimuth),
            abs(rec.elevation - batch.elevation),
            abs(rec.level - batch.level),
        )
    assert worst < 1e-4


def test_rls_cov_stays_symmetric_positive_definite():
    rng = np.random.default_rng(41)
    k = QuadraticCoefficients(-1.1, -11.4)
    state = rls_init(0.97, 1e4)
    for i in range(400):
        az, el = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        level = -1.1 * (az - 0.1) ** 2 - 11.4 * (el + 0.2) ** 2 + 3.0 + rng.normal(0, 0.05)
        state, _ = rls_update(state, *_one_row(az, el, level, k))
        assert np.allclose(state.cov, state.cov.T, rtol=1e-9, atol=1e-12)
        np.linalg.cholesky(state.cov)  # raises if not positive definite


def test_rls_update_rejects_non_finite():
    state = rls_init(0.98)
    with pytest.raises(ValueError):
        rls_update(state, np.array([[np.nan, 0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        rls_update(state, np.array([[0.0, 0.0, 1.0]]), np.array([math.inf]))


def test_rls_recover_fresh_state_is_origin():
    peak = rls_recover(rls_init(0.98), K12)
    assert (peak.azimuth, peak.elevation, peak.level) == (0.0, 0.0, 0.0)


def test_rls_recover_degenerate_k():
    with pytest.raises(EstimationError, match=r"\|k_az\|=0\.001, \|k_el\|=2 below floor 0\.01"):
        rls_recover(rls_init(0.98), QuadraticCoefficients(-0.001, -2.0))


# -- memory horizon ----------------------------------------------------------------

def test_memory_horizon_paper_value():
    assert memory_horizon(0.98) == 50.0


def test_memory_horizon_infinite_at_one():
    assert memory_horizon(1.0) == math.inf


def test_memory_horizon_half():
    assert memory_horizon(0.5) == 2.0


def test_memory_horizon_domain():
    with pytest.raises(ValueError):
        memory_horizon(0.0)
    with pytest.raises(ValueError):
        memory_horizon(1.01)


# -- against the per-sample forms ---------------------------------------------------
# The per-sample forms in ``oracles``, one sample or row at a time, are the
# reference the package's array functions must match bit for bit, NaN
# included.

def _scalar_rows(az, el, level, k):
    return [
        oracles.regression_row(oracles.BeaconSample(0.0, a, e, lv), k)
        for a, e, lv in zip(az.tolist(), el.tolist(), level.tolist())
    ]


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _rls_loop(state, rows):
    for row in rows:
        state, _ = oracles.rls_update(state, row)
    return state


def _columns(n, elements):
    return st.tuples(*[hnp.arrays(np.float64, n, elements=elements)] * 3)


curvatures = st.builds(
    QuadraticCoefficients, st.floats(-50.0, -0.01), st.floats(-50.0, -0.01)
)
samples = st.integers(3, 60).flatmap(
    lambda n: _columns(n, st.floats(allow_nan=False, allow_infinity=False))
)
pattern_samples = st.integers(3, 200).flatmap(
    lambda n: _columns(n, st.floats(-0.5, 0.5))
)


@given(columns=samples, k=curvatures)
def test_regression_rows_match_scalar_rows(columns, k):
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = regression_row(*columns, k)
    rows = _scalar_rows(*columns, k)
    assert _same_bits(x, [row.regressors for row in rows])
    assert _same_bits(y, [row.response for row in rows])


@given(
    columns=pattern_samples,
    k=curvatures,
    forgetting=st.sampled_from([1.0, 0.999, 0.98]) | st.floats(0.5, 1.0),
    delta=st.sampled_from([1e8, 1e4]),
)
def test_rls_run_matches_rls_update_loop(columns, k, forgetting, delta):
    state = rls_init(forgetting, delta)
    x, y = regression_row(*columns, k)
    with np.errstate(all="ignore"):
        run, _ = rls_update(state, x, y)
        loop = _rls_loop(state, _scalar_rows(*columns, k))
    assert _same_bits(run.coeffs, loop.coeffs)
    assert _same_bits(run.cov, loop.cov)
    assert run.forgetting == loop.forgetting


def test_rls_run_matches_rls_update_loop_through_windup():
    # A rectangle pattern, then the antenna holding still: at forgetting
    # 0.98 the gain matrix grows by 1/0.98 a row along the directions the
    # held rows do not excite, until it overflows into inf and nan.
    rng = np.random.default_rng(12)
    corners = np.repeat([(-0.2, -0.05), (0.2, -0.05), (0.2, 0.05), (-0.2, 0.05)], 50, 0)
    pos = np.vstack([corners, np.tile([(0.01, -0.02)], (36_000, 1))])
    level = 6.0 + 0.2 * rng.standard_normal(len(pos))
    state = rls_init(0.98, 1e8)
    x, y = regression_row(pos[:, 0], pos[:, 1], level, K12)
    with np.errstate(all="ignore"):
        run, _ = rls_update(state, x, y)
        loop = _rls_loop(state, _scalar_rows(pos[:, 0], pos[:, 1], level, K12))
    assert np.isnan(run.cov).any()
    assert _same_bits(run.coeffs, loop.coeffs)
    assert _same_bits(run.cov, loop.cov)


@pytest.mark.parametrize("bad", [(2, 0), (2, 1), (0, 0), (4, None)])
def test_rls_run_rejects_non_finite_row_like_rls_update(bad):
    i, j = bad
    x, y = regression_row(np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5), np.ones(5), K12)
    if j is None:
        y[i] = math.inf
    else:
        x[i, j] = math.nan
    state = rls_init(0.98)
    with pytest.raises(ValueError) as from_update:
        _rls_loop(state, [oracles.RegressionRow(xi, float(yi)) for xi, yi in zip(x, y)])
    with pytest.raises(ValueError) as from_run:
        rls_update(state, x, y)
    assert str(from_run.value) == str(from_update.value)
    assert "non-finite regression row" in str(from_run.value)


def test_rls_run_stops_once_the_state_is_a_nan_fixed_point(monkeypatch):
    # The windup data above: the recursion goes all-NaN well before its
    # last row, and every later step would give the same bits back.
    rng = np.random.default_rng(12)
    corners = np.repeat([(-0.2, -0.05), (0.2, -0.05), (0.2, 0.05), (-0.2, 0.05)], 50, 0)
    pos = np.vstack([corners, np.tile([(0.01, -0.02)], (36_000, 1))])
    level = 6.0 + 0.2 * rng.standard_normal(len(pos))
    state = rls_init(0.98, 1e8)
    x, y = regression_row(pos[:, 0], pos[:, 1], level, K12)
    with np.errstate(all="ignore"):
        loop = _rls_loop(state, _scalar_rows(pos[:, 0], pos[:, 1], level, K12))
        # Count the rows the recursion takes from its input.
        taken = []
        real_rls = estimators._rls

        def counting_rls(state, rows):
            return real_rls(state, (taken.append(1) or row for row in rows))

        monkeypatch.setattr(estimators, "_rls", counting_rls)
        run, _ = rls_update(state, x, y)
    assert 0 < len(taken) < len(x)
    assert np.isnan(run.coeffs).all() and np.isnan(run.cov).all()
    assert _same_bits(run.coeffs, loop.coeffs)
    assert _same_bits(run.cov, loop.cov)


def test_rls_zero_denominator_divides_like_ieee():
    # A gain matrix that is not positive definite can make lam + x.Px zero:
    # the gain is then px / 0, -inf or nan as IEEE arithmetic gives it.
    # Here px = (0, 0, -0.98) and lam + x.px = 0.98 - 0.98.
    state = RlsState(np.zeros(3), np.diag([1.0, 1.0, -0.98]), 0.98)
    with np.errstate(all="ignore"):
        new, residual = rls_update(state, np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
    assert residual == 1.0
    assert np.isnan(new.coeffs[:2]).all() and new.coeffs[2] == -math.inf


nan_signs = st.sampled_from([math.nan, -math.nan])


@given(
    columns=pattern_samples,
    k=curvatures,
    forgetting=st.sampled_from([1.0, 0.98]) | st.floats(0.5, 1.0),
    nan_in=st.sampled_from(["coeffs", "cov", "both"]),
    coeffs_nan=nan_signs,
    cov_nan=nan_signs,
)
def test_rls_run_matches_rls_update_loop_from_nan_states(
    columns, k, forgetting, nan_in, coeffs_nan, cov_nan
):
    # A state with NaN in only part of it is not a fixed point: with NaN
    # coefficients the residual is NaN while the gain matrix stays finite
    # and keeps changing, so stopping at the first NaN residual fails here.
    fresh = rls_init(forgetting)
    state = RlsState(
        coeffs=np.full(3, coeffs_nan) if nan_in != "cov" else fresh.coeffs,
        cov=np.full((3, 3), cov_nan) if nan_in != "coeffs" else fresh.cov,
        forgetting=forgetting,
    )
    x, y = regression_row(*columns, k)
    with np.errstate(all="ignore"):
        run, _ = rls_update(state, x, y)
        loop = _rls_loop(state, _scalar_rows(*columns, k))
    assert _same_bits(run.coeffs, loop.coeffs)
    assert _same_bits(run.cov, loop.cov)


@given(columns=pattern_samples, k=curvatures)
def test_ls_fit_matches_ls_solve(columns, k):
    rows = _scalar_rows(*columns, k)
    try:
        want = oracles.ls_fit(rows)
    except EstimationError as exc:
        if "rank deficient" not in str(exc):
            raise
        with pytest.raises(EstimationError, match="rank deficient"):
            ls_fit(*regression_row(*columns, k))
        return
    assert _same_bits(ls_fit(*regression_row(*columns, k)), want)


@pytest.mark.parametrize("far", [1e154, 1e200])
def test_ls_solve_sums_that_overflow_are_rank_deficient(far):
    # 1e154 squared is finite, but two of them overflow inside fsum; 1e200
    # squared is inf, and the cross sums meet inf - inf.
    az, el = np.array([far, -far, 0.0, 1.0]), np.array([far, far, 0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = regression_row(az, el, np.zeros(4), K12)
        with pytest.raises(EstimationError, match="rank deficient .*reciprocal condition 0.000e"):
            ls_fit(x, y)


def test_ls_solve_insufficient_data():
    with pytest.raises(EstimationError, match="need at least 3 samples, got 2"):
        ls_fit(np.ones((2, 3)), np.ones(2))


# -- fit_peak ----------------------------------------------------------------------

def _scalar_fit(az, el, level, centre, k, estimator, forgetting, delta, prior):
    """The fit composed sample by sample from the scalar forms: centre each
    sample, map it to its row, run ``rls_update`` from the encoded prior (or
    ``ls_fit`` the rows), recover the peak and shift it back."""
    caz, cel = centre
    rows = [
        oracles.regression_row(oracles.BeaconSample(0.0, a - caz, e - cel, lv), k)
        for a, e, lv in zip(az.tolist(), el.tolist(), level.tolist())
    ]
    if estimator == "batch-ls":
        local = recover_peak(oracles.ls_fit(rows), k)
    else:
        state = rls_init(forgetting, delta)
        if prior is not None:
            daz = prior.azimuth - caz
            del_ = prior.elevation - cel
            coeffs = np.array([
                -2.0 * k.k_az * daz,
                -2.0 * k.k_el * del_,
                prior.level + k.k_az * daz * daz + k.k_el * del_ * del_,
            ])
            state = RlsState(coeffs=coeffs, cov=state.cov, forgetting=forgetting)
        local = rls_recover(_rls_loop(state, rows), k)
    return PeakEstimate(local.azimuth + caz, local.elevation + cel, local.level)


def _peak_bits(peak):
    return np.array([peak.azimuth, peak.elevation, peak.level]).tobytes()


@given(
    columns=pattern_samples,
    k=curvatures,
    origin=st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 90.0)),
    offset=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
    estimator=st.sampled_from(["batch-ls", "rls"]),
    forgetting=st.sampled_from([1.0, 0.98]) | st.floats(0.5, 1.0),
    delta=st.sampled_from([1e8, 1e4]),
    prior=st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-10.0, 10.0)),
)
def test_fit_peak_matches_scalar_composition(
    columns, k, origin, offset, estimator, forgetting, delta, prior
):
    az, el, level = columns
    az, el = az + origin[0], el + origin[1]
    centre = (origin[0] + offset[0], origin[1] + offset[1])
    if prior is not None:
        prior = PeakEstimate(origin[0] + prior[0], origin[1] + prior[1], prior[2])
    with np.errstate(all="ignore"):
        try:
            want = _scalar_fit(az, el, level, centre, k, estimator, forgetting, delta, prior)
            if not np.isfinite([want.azimuth, want.elevation, want.level]).all():
                raise EstimationError("non-finite estimate")
        except EstimationError as exc:
            with pytest.raises(EstimationError, match=re.escape(str(exc))):
                fit_peak(az, el, level, centre, k, estimator, forgetting, delta, prior=prior)
            return
        got, rms = fit_peak(az, el, level, centre, k, estimator, forgetting, delta, prior=prior)
    assert _peak_bits(got) == _peak_bits(want)
    assert math.isnan(rms) or rms >= 0.0


def test_fit_peak_residual_rms_of_exact_and_offset_samples():
    positions = np.array(RECT + [(1.0, 2.0)])
    params = ParabolaParams(k_az=K12.k_az, k_el=K12.k_el, peak_az=1.0, peak_el=2.0, peak_level=3.0)
    level = beacon_level(params, positions[:, 0], positions[:, 1])
    for estimator in ("batch-ls", "rls"):
        peak, rms = fit_peak(
            positions[:, 0], positions[:, 1], level, (1.0, 2.0), K12, estimator, delta=1e8
        )
        assert peak.azimuth == pytest.approx(1.0, abs=1e-6)
        assert peak.elevation == pytest.approx(2.0, abs=1e-6)
        assert peak.level == pytest.approx(3.0, abs=1e-6)
        assert rms < 1e-6
    # One sample 0.5 dB high: the batch residuals are those of the fit.
    level[-1] += 0.5
    peak, rms = fit_peak(positions[:, 0], positions[:, 1], level, (1.0, 2.0), K12, "batch-ls")
    x, y = regression_row(positions[:, 0] - 1.0, positions[:, 1] - 2.0, level, K12)
    beta = ls_fit(x, y)
    assert rms == pytest.approx(math.sqrt(np.mean((y - x @ beta) ** 2)), rel=1e-12)
    assert rms > 0.1


@pytest.mark.parametrize("estimator", ["batch-ls", "rls"])
def test_fit_peak_needs_three_samples(estimator):
    with pytest.raises(EstimationError, match="need at least 3 samples, got 2"):
        fit_peak(np.ones(2), np.ones(2), np.ones(2), (1.0, 1.0), K12, estimator)


def test_fit_peak_rejects_unknown_estimator():
    with pytest.raises(ValueError, match="estimator"):
        fit_peak(np.ones(5), np.ones(5), np.ones(5), (1.0, 1.0), K12, "kalman")


# -- fit_peak in blocks ------------------------------------------------------------
# ``fit_peak`` reads its window ``_BLOCK_ROWS`` rows at a time; the reference
# is the same fit over whole-window arrays (``oracles.fit_peak``).

BLOCK = estimators._BLOCK_ROWS
K_DESK = QuadraticCoefficients(-1.1, -11.4)


def _window(n, seed, spread):
    """n noisy samples of the desk beacon around (180, 72), spread deg wide."""
    rng = np.random.default_rng(seed)
    az = 180.0 + spread * rng.uniform(-1.0, 1.0, n)
    el = 72.0 + 0.25 * spread * rng.uniform(-1.0, 1.0, n)
    with np.errstate(all="ignore"):
        level = (6.0 + K_DESK.k_az * (az - 180.01) ** 2 + K_DESK.k_el * (el - 72.005) ** 2
                 + rng.normal(0.0, 0.2, n))
    return az, el, level


def _outcome(fit, *args, **kwargs):
    """The peak's and the RMS's bits, or the exception's type and message."""
    try:
        with np.errstate(all="ignore"):
            peak, rms = fit(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return struct.pack("4d", peak.azimuth, peak.elevation, peak.level, rms)


edge_lengths = st.sampled_from(
    [3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK]
)


@given(
    n=edge_lengths | st.integers(3, 3 * BLOCK + 1),
    seed=st.integers(0, 2**32 - 1),
    estimator=st.sampled_from(ESTIMATORS),
    forgetting=st.sampled_from([1.0, 0.98, 0.5]),
    prior=st.booleans(),
    spread=st.sampled_from([0.2, 1e-9, 0.0, 1e200]),
    bad=st.none() | st.tuples(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(["az", "el", "level"]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
)
@example(n=2 * BLOCK + 1, seed=1, estimator="rls", forgetting=1.0, prior=True, spread=0.2,
         bad=(BLOCK / (2 * BLOCK + 1), "level", math.nan))
def test_fit_peak_in_blocks_matches_the_whole_window_fit(
    n, seed, estimator, forgetting, prior, spread, bad
):
    az, el, level = _window(n, seed, spread)
    if bad is not None:
        where, column, value = bad
        {"az": az, "el": el, "level": level}[column][int(where * n)] = value
    args = (az, el, level, (180.0, 72.0), K_DESK, estimator, forgetting, 1e4)
    kwargs = {"prior": PeakEstimate(180.02, 71.99, 5.5) if prior else None}
    assert _outcome(fit_peak, *args, **kwargs) == _outcome(oracles.fit_peak, *args, **kwargs)


def test_a_non_finite_row_after_the_recursion_stops_is_still_reported(monkeypatch):
    # Held rows at forgetting 0.5 double the gain matrix along the
    # directions they do not excite, row by row, until it overflows and the
    # state is an all-NaN fixed point, well inside the first block. The NaN
    # level in the second block is reported as the whole-window check
    # reports it, not as a non-finite estimate.
    n = 2 * BLOCK
    az, el, level = np.full(n, 180.0), np.full(n, 72.0), np.full(n, 6.0)
    args = (az, el, level, (180.0, 72.0), K_DESK, "rls", 0.5)
    taken = []
    real_rls = estimators._rls
    monkeypatch.setattr(
        estimators, "_rls", lambda state, rows: real_rls(state, (taken.append(1) or r for r in rows))
    )
    with np.errstate(all="ignore"), pytest.raises(EstimationError, match="non-finite estimate"):
        fit_peak(*args)
    assert 0 < len(taken) < BLOCK
    level[BLOCK + 7] = math.nan
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as want:
            oracles.fit_peak(*args)
        with pytest.raises(ValueError) as got:
            fit_peak(*args)
        x, y = regression_row(az - 180.0, el - 72.0, level, K_DESK)
        with pytest.raises(ValueError) as updated:
            rls_update(rls_init(0.5), x, y)
    assert str(got.value) == str(want.value) == str(updated.value)
    assert str(got.value) == "non-finite regression row: regressors [0. 0. 1.], response nan"


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_fit_holds_a_few_blocks_of_scratch_whatever_its_window(estimator):
    # The bound follows from the block size: sixteen float64 arrays of one
    # block, 512 KiB at 4096 rows. A fit over whole-window arrays of 250,000
    # samples holds about ten 2 MB arrays at once.
    bound = 16 * BLOCK * 8
    az, el, level = _window(250_000, 5, 0.2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_peak(az, el, level, (180.0, 72.0), K_DESK, estimator)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < bound


# -- the recursion against its reference ------------------------------------------
# ``oracles.rls_reference`` writes the recursion out row by row, with the
# third regressor's products; ``oracles.fit_peak`` runs it over whole-window
# arrays. The package's recursion reads rows (a, e, y) and drops them.

def _windup(_n, seed, _spread):
    """The windup data above around (180, 72): a rectangle, then 36,000 rows
    held still, which at forgetting 0.98 run into the NaN fixed point."""
    rng = np.random.default_rng(seed)
    corners = np.repeat([(-0.2, -0.05), (0.2, -0.05), (0.2, 0.05), (-0.2, 0.05)], 50, 0)
    pos = np.vstack([corners, np.tile([(0.01, -0.02)], (36_000, 1))])
    return 180.0 + pos[:, 0], 72.0 + pos[:, 1], 6.0 + 0.2 * rng.standard_normal(len(pos))


@given(
    n=st.sampled_from([3, 57, 75, BLOCK, BLOCK + 1, 2 * BLOCK + 1]) | st.integers(3, 3 * BLOCK),
    seed=st.integers(0, 2**32 - 1),
    forgetting=st.sampled_from([1.0, 0.98]) | st.floats(0.5, 1.0),
    delta=st.sampled_from([1e4, 1e8]),
    prior=st.booleans(),
    start=st.sampled_from(["fresh", "coeffs", "cov", "both"]),
    nan=nan_signs,
    data=st.just(_window),
)
@example(n=0, seed=12, forgetting=0.98, delta=1e8, prior=False, start="fresh", nan=math.nan,
         data=_windup)
@example(n=0, seed=12, forgetting=0.98, delta=1e8, prior=True, start="cov", nan=-math.nan,
         data=_windup)
def test_rls_matches_the_reference_recursion_bit_for_bit(
    n, seed, forgetting, delta, prior, start, nan, data
):
    az, el, level = data(n, seed, 0.2)
    args = (az, el, level, (180.0, 72.0), K_DESK, "rls", forgetting, delta)
    kwargs = {"prior": PeakEstimate(180.02, 71.99, 5.5) if prior else None}
    assert _outcome(fit_peak, *args, **kwargs) == _outcome(oracles.fit_peak, *args, **kwargs)
    # The final state itself, also from states with NaN in them.
    fresh = rls_init(forgetting, delta)
    state = RlsState(
        coeffs=np.full(3, nan) if start in ("coeffs", "both") else fresh.coeffs,
        cov=np.full((3, 3), nan) if start in ("cov", "both") else fresh.cov,
        forgetting=forgetting,
    )
    x, y = regression_row(az - 180.0, el - 72.0, level, K_DESK)
    with np.errstate(all="ignore"):
        run, _ = rls_update(state, x, y)
        want = oracles.rls_reference(state, x, y)
    assert _same_bits(run.coeffs, want.coeffs)
    assert _same_bits(run.cov, want.cov)
    assert run.forgetting == want.forgetting


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_numpy_curvature_gives_float_results(estimator, monkeypatch):
    # The tracker's azimuth curvature is a numpy.float64. Seeded with it,
    # the recursion would run in numpy scalars, and its peak would reach
    # the plan loop as numpy scalars too.
    k = QuadraticCoefficients(az_coeff_from_elevation(K_DESK.k_el, 72.0), K_DESK.k_el)
    assert type(k.k_az) is np.float64
    states = []
    real_rls = estimators._rls
    monkeypatch.setattr(
        estimators, "_rls", lambda state, rows: states.append(state) or real_rls(state, rows)
    )
    az, el, level = _window(75, 3, 0.2)
    peak, rms = fit_peak(az, el, level, (180.0, 72.0), k, estimator, 0.98,
                         prior=PeakEstimate(180.02, 71.99, 5.5))
    assert [type(v) for v in (peak.azimuth, peak.elevation, peak.level, rms)] == [float] * 4
    assert all(type(v) is float for state in states for v in state)
    assert len(states) == (estimator == "rls")
