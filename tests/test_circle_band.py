"""Every point test against the unit circle reads one band: ||z| - 1| <= eps_circle.

A site either wants its point on the circle (and snaps it to |z| = 1) or in the closed
disc, band included. Points 0.5 eps_circle off the circle pass, points 2 eps_circle off
fail with the site's own exception, whose message names ||z| - 1| and eps_circle, and
NaN and infinity fail everywhere.
"""

import cmath
import math

import numpy as np
import pytest

from gammakit import (
    BadParameter,
    BadSpec,
    NotOnTorusFiber,
    Poly,
    PointOutOfRegion,
    SynthesisSpec,
    ToleranceConfig,
    boundary_flatness,
    eval_h,
    geodesic,
    h_nu,
    l_factor,
    mobius_chart,
    q_factor,
    superficial,
)
from gammakit.geometry import _chart_curve
from gammakit.polynomials import _closed_disc_roots


def _spec(tol, taus=(-1.0,), sigmas=(0.0,)):
    return SynthesisSpec((), taus, sigmas, t_plus=1.0, t=1.0, omega=1.0, tol=tol)


# site: (wants the circle, error, name in the message, run(z, tol), stored point or None)
SITES = {
    "q_factor": (False, PointOutOfRegion, "sigma", q_factor, None),
    "l_factor": (True, PointOutOfRegion, "tau", l_factor, lambda l: -l.coeffs[0] / l.coeffs[1]),
    "spec_tau": (True, BadSpec, "tau", lambda z, tol: _spec(tol, taus=(z,)), lambda s: s.taus[0]),
    "spec_sigma": (
        False, BadSpec, "sigma", lambda z, tol: _spec(tol, sigmas=(z,)), lambda s: s.sigmas[0],
    ),
    "geodesic": (False, BadParameter, "beta", geodesic, lambda h: h.E.coeffs[0]),
    "superficial": (
        True, BadParameter, "omega", lambda z, tol: superficial(z, Poly([1.0]), 1, tol),
        lambda h: h.E.coeffs[0],
    ),
    "boundary_flatness": (
        True, ValueError, "tau", lambda z, tol: boundary_flatness(h_nu(0, 0.5, tol), z),
        None,
    ),
    "mobius_chart": (True, NotOnTorusFiber, "p", lambda z, tol: mobius_chart(0, z, tol=tol), None),
    "_chart_curve": (
        True, NotOnTorusFiber, "p",
        lambda z, tol: _chart_curve(np.zeros(2, complex), np.array([1.0, z]), tol), None,
    ),
    "eval_h": (False, ValueError, "lambda", lambda z, tol: eval_h(h_nu(0, 0.5, tol), z), None),
}
# The chart tests that (s, p) is finite before it tests the band.
FINITE_FIRST = {"mobius_chart", "_chart_curve"}

ROTATION = cmath.exp(0.3j)
# (case, eps_circle, point): offsets of +-0.5 and +-2 eps_circle along one ray; the
# point 1.00000002 lies 2.00000001e-8 outside, so a band of 2e-8 leaves it out.
CASES = [
    (f"{off:+g}eps", eps, (1.0 + off * eps) * ROTATION)
    for eps in (1e-8, 2e-8)
    for off in (-2.0, -0.5, 0.5, 2.0)
] + [
    ("edge", 2e-8, 1.00000002 + 0j),
    ("nan", 1e-8, complex(math.nan, 0.0)),
    ("inf", 1e-8, complex(math.inf, 0.0)),
]


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("case, eps, z", CASES, ids=[f"{c}-{e:g}" for c, e, _ in CASES])
def test_band_at_every_site(site, case, eps, z):
    circle, error, name, run, stored = SITES[site]
    tol = ToleranceConfig(eps_circle=eps)
    miss = abs(abs(z) - 1.0)
    in_band = miss <= eps
    if in_band or (not circle and abs(z) < 1.0):
        out = run(z, tol)
        if stored is not None:
            point = stored(out)
            if in_band:
                assert abs(abs(point) - 1.0) <= 4e-16  # snapped, where z was 0.5 eps off
            else:
                assert point == z
        return
    if not cmath.isfinite(z) and site in FINITE_FIRST:
        with pytest.raises(BadParameter, match="not finite"):
            run(z, tol)
        return
    with pytest.raises(error) as info:
        run(z, tol)
    message = str(info.value)
    assert f"||{name}| - 1| = {miss:.3e}; eps_circle = {eps:.3g}" in message


@pytest.mark.parametrize("off, kept, on_circle", [
    (-2.0, True, False), (-0.5, True, True), (0.5, True, True), (2.0, False, False),
])
def test_closed_disc_roots_read_the_band(off, kept, on_circle):
    eps = 1e-8
    z = (1.0 + off * eps) * ROTATION
    found = _closed_disc_roots(Poly([-z, 1.0]), ToleranceConfig(eps_circle=eps))
    assert len(found) == kept
    if kept:
        root, m, unit = found[0]
        assert m == 1 and (unit is not None) == on_circle
        if on_circle:
            assert unit == root / abs(root)


def test_call_is_eval():
    h = h_nu(1, 0.5)
    for lam in (0.3 + 0.1j, -1.0, cmath.exp(2.0j)):
        assert h(lam) == h.eval(lam) == eval_h(h, lam)
