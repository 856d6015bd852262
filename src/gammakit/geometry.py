"""Pointwise geometry of the symmetrized bidisc.

The closed symmetrized bidisc is the image of the closed bidisc under
(z, w) -> (z + w, z w). Membership of a point (s, p), its boundary and its
distinguished boundary all reduce to explicit inequalities in s and p; the
distinguished boundary is a closed Moebius band charted by a flat coordinate
pair (x, theta).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

from .errors import BadParameter, NotOnTorusFiber
from .tolerances import DEFAULT_TOL, ToleranceConfig, _band_miss, _modulus, _unimodular


class GammaRegion(Enum):
    """Location of a point relative to the closed symmetrized bidisc."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    DISTINGUISHED_BOUNDARY = "distinguished-boundary"
    OUTSIDE = "outside"


def symmetrize(z: complex, w: complex) -> tuple[complex, complex]:
    """Map a bidisc point to (z + w, z w)."""
    return z + w, z * w


def classify_point(
    s: complex, p: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> GammaRegion:
    """Classify (s, p) with ``eps_residual`` slack on each defining inequality.

    Membership: |s| <= 2 and |s - conj(s) p| <= 1 - |p|^2. The boundary is
    the equality case of the second condition; the distinguished boundary
    additionally has |p| = 1 and s = conj(s) p. Ties resolve to the most
    specific region. A non-finite s or p raises :class:`BadParameter`.
    """
    s = complex(s)
    p = complex(p)
    if not (cmath.isfinite(s) and cmath.isfinite(p)):
        raise BadParameter(f"(s, p) = ({s}, {p}) is not a finite point")
    eps = tol.eps_residual
    mod_p = _modulus(p)
    twist = _modulus(s - s.conjugate() * p)
    room = 1.0 - min(mod_p, 2.0) ** 2  # |p| > 2 is outside either way; its square may overflow

    if _modulus(s) > 2.0 + eps or twist > room + eps:
        return GammaRegion.OUTSIDE
    if abs(mod_p - 1.0) <= eps and twist <= eps:
        return GammaRegion.DISTINGUISHED_BOUNDARY
    if abs(twist - room) <= eps:
        return GammaRegion.BOUNDARY
    return GammaRegion.INTERIOR


def royal_residual(s: complex, p: complex) -> complex:
    """s^2 - 4p; zero exactly on the royal variety."""
    return complex(s) ** 2 - 4.0 * complex(p)


def mobius_chart(
    s: complex,
    p: complex,
    branch_ref: float = 0.0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[float, float]:
    """Flat coordinates (x, theta) of a distinguished-boundary point.

    theta is the branch of -i log p nearest ``branch_ref``, so a caller
    walking along a curve keeps theta continuous by chaining each returned
    theta into the next call. x = Re(s e^{-i theta/2}) / 2 lies in [-1, 1]
    for genuine distinguished-boundary points; the product s e^{-i theta/2}
    is real there because s = conj(s) p. A non-finite s, p or
    ``branch_ref`` raises :class:`BadParameter`.
    """
    s = complex(s)
    p = complex(p)
    if not (cmath.isfinite(s) and cmath.isfinite(p) and math.isfinite(branch_ref)):
        raise BadParameter(f"(s, p, branch_ref) = ({s}, {p}, {branch_ref}) is not finite")
    if _unimodular(p, tol) is None:
        raise NotOnTorusFiber(f"{_band_miss('p', p, tol)}; the chart needs |p| = 1")
    principal = cmath.phase(p)
    theta = principal + 2.0 * math.pi * round((branch_ref - principal) / (2.0 * math.pi))
    x = 0.5 * (s * cmath.exp(-0.5j * theta)).real
    return x, theta


def _chart_curve(s: np.ndarray, p: np.ndarray, tol: ToleranceConfig):
    """``mobius_chart`` chained along sampled points, as arrays (x, theta).

    theta is the principal angle plus 2 pi times an integer turn count, the
    branch nearest the previous theta (the first one's nearest 0); x is taken
    in real arithmetic, which rounds as the scalar complex product does.
    """
    worst = np.argmax(np.abs(np.abs(p) - 1.0))  # argmax picks a NaN first
    mobius_chart(s[worst], p[worst], tol=tol)  # the scalar chart's checks, on the worst row
    principal = np.angle(p)
    turns = np.cumsum(np.round(-np.diff(principal, prepend=0.0) / (2.0 * math.pi)))
    theta = principal + 2.0 * math.pi * turns
    return 0.5 * (s.real * np.cos(0.5 * theta) + s.imag * np.sin(0.5 * theta)), theta
