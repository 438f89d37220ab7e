"""Quadratic beacon-level model around the optimal pointing direction.

Near the peak, the received beacon level (dB) as a function of antenna
azimuth/elevation (deg) is modelled as a downward 2D parabola:

    level(az, el) = k_az * (az - peak_az)**2 + k_el * (el - peak_el)**2 + peak_level

Both quadratic coefficients are negative, so the surface has a unique
maximum ``peak_level`` at ``(peak_az, peak_el)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Elevation-axis quadratic coefficient of a 3 m dish tracking a Ku-band
# beacon, in dB/deg^2; scenario configuration may override it.
DEFAULT_K_EL = -11.4


@dataclass(frozen=True)
class QuadraticCoefficients:
    """The a-priori curvature pair the estimators must know.

    ``k_az`` may also be an array, as in ``ParabolaParams``; every element
    must then be negative.
    """

    k_az: float  # dB/deg^2
    k_el: float  # dB/deg^2

    def __post_init__(self) -> None:
        k_az = self.k_az.max() if isinstance(self.k_az, np.ndarray) else self.k_az
        if not (k_az < 0 and self.k_el < 0):
            raise ValueError(
                f"quadratic coefficients must be strictly negative, "
                f"got k_az={self.k_az}, k_el={self.k_el}"
            )


@dataclass(frozen=True)
class ParabolaParams(QuadraticCoefficients):
    """Full beacon surface: curvature, peak direction and peak level.

    ``peak_level`` is expected to sit at or above the receiver noise
    floor; that relation is checked where receiver and surface meet,
    not here.

    ``k_az``, ``peak_az`` and ``peak_el`` may also be equal-length arrays,
    one surface per sample time; ``beacon_level`` then evaluates each.
    """

    peak_az: float  # deg
    peak_el: float  # deg
    peak_level: float  # dB


def beacon_level(params: ParabolaParams, azimuth: float, elevation: float) -> float:
    """Ideal beacon level (dB) at a pointing direction.

    Total function; the result is <= params.peak_level with equality
    exactly at the peak. Plain arithmetic, so it also takes arrays:
    array fields in ``params`` give the level at each surface.
    """
    daz = azimuth - params.peak_az
    del_ = elevation - params.peak_el
    return params.k_az * daz * daz + params.k_el * del_ * del_ + params.peak_level


def az_coeff_from_elevation(k_el: float, elevation):
    """Azimuth curvature derived from the elevation curvature.

    An azimuth step moves the beam over a smaller sky arc at high
    elevation, which flattens the azimuth cut of the surface:
    ``k_az = k_el * cos(elevation)**2``. ``elevation`` may be a float or
    an array, giving one curvature per elevation.

    Raises ValueError if an elevation is outside [0, 90] or k_el >= 0.
    At 90 deg the result is 0 (degenerate); callers feeding estimators
    must enforce a magnitude floor before inverting the fit.
    """
    # Elementwise, with no np.min or np.max, which cost microseconds on a
    # float; NaN fails both comparisons.
    inside = np.asarray((0.0 <= elevation) & (elevation <= 90.0))
    if not inside.all():
        bad = np.asarray(elevation)[~inside][0]
        raise ValueError(f"elevation must be in [0, 90] deg, got {bad}")
    if not k_el < 0:
        raise ValueError(f"k_el must be strictly negative, got {k_el}")
    c = np.cos(np.radians(elevation))
    return k_el * c * c
