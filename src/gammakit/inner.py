"""Validated (E, D, n) representation of rational inner maps into the bidisc.

A rational inner map h = (s, p) of degree n is carried by two polynomials:
s = E / D and p = D~ / D, where D~ is the degree-n conjugate reciprocal of D.
Validation enforces the four representation conditions: degree bounds, the
n-symmetry of E, zero-freeness of D on the closed disc, and the circle
inequality |E| <= 2 |D|, whose minimum ``circle_extrema`` estimates by a grid
scan plus local refinement, not a certified bound (ROADMAP defect C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadParameter, ConditionFailed, NotInner, PoleOnDomain
from .polynomials import (
    Poly,
    conj_reciprocal,
    is_n_symmetric,
    roots_with_multiplicity,
)
from .spectral import TrigPoly, circle_extrema, to_trig_modulus_squared
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class GammaInner:
    """A validated rational inner map (E/D, D~/D) with degree bound n.

    Instances are immutable and produced by :func:`validate`; ``strict``
    records whether D was required to be zero-free on the whole closed disc
    (the default) or only on the open disc, in which case circle zeros of D
    lower the realized degree.
    """

    E: Poly
    D: Poly
    n: int
    tol: ToleranceConfig = field(compare=False)
    strict: bool = True
    d_circle_zeros: int = 0
    # royal_profile's memo for ``tol``; see its docstring.
    _royal_profile: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def degree(self) -> int:
        """Degree of the Blaschke product p after cancelling circle zeros."""
        return self.n - self.d_circle_zeros

    @cached_property
    def d_reflected(self) -> Poly:
        return conj_reciprocal(self.D, self.n)

    def eval(self, lam: complex) -> tuple[complex, complex]:
        return eval_h(self, lam)

    def __call__(self, lam: complex) -> tuple[complex, complex]:
        return eval_h(self, lam)


def circle_gap(e: Poly, d: Poly) -> TrigPoly:
    """The trig polynomial 4 |D|^2 - |E|^2 from exact autocorrelations."""
    return TrigPoly.lincomb(
        [(4.0, to_trig_modulus_squared(d)), (-1.0, to_trig_modulus_squared(e))]
    )


def validate(
    e: Poly,
    d: Poly,
    n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    strict: bool = True,
) -> GammaInner:
    """Check conditions (i)-(iv) and wrap the pair as a GammaInner.

    (i) deg E <= n and deg D <= n; (ii) E is n-symmetric; (iii) D has no
    zeros on the closed disc (or, with ``strict=False``, none on the open
    disc); (iv) 4|D|^2 - |E|^2 >= 0 on the circle, from the exact
    autocorrelation coefficients; ``circle_extrema`` estimates the minimum by
    a grid scan plus local refinement, not a certified bound (ROADMAP defect C).

    Raises :class:`ConditionFailed` carrying every failed condition label.
    """
    if n < 1:
        raise BadParameter("the degree bound n must be a positive integer")

    failed = []
    details = {}

    if e.degree > n or d.degree > n:
        failed.append("i")
        details["i"] = f"deg E = {e.degree}, deg D = {d.degree} exceed n = {n}"

    if not is_n_symmetric(e, n, tol):
        failed.append("ii")
        details["ii"] = f"E is not {n}-symmetric"

    circle_zeros = 0
    if d.is_zero():
        failed.append("iii")
        details["iii"] = "D is the zero polynomial"
    else:
        if d.degree > 0 and d.degree <= n:
            inner_limit = 1.0 - tol.eps_circle
            outer_limit = 1.0 + tol.eps_circle
            for z, m in roots_with_multiplicity(d, tol):
                r = abs(z)
                if strict:
                    if r < outer_limit:
                        failed.append("iii")
                        details["iii"] = f"D has a zero of modulus {r:.9g} on the closed disc"
                        break
                else:
                    if r < inner_limit:
                        failed.append("iii")
                        details["iii"] = f"D has a zero of modulus {r:.9g} in the open disc"
                        break
                    if r <= outer_limit:
                        circle_zeros += m

    gap = circle_gap(e, d)
    min_val, arg_min = circle_extrema(gap, tol.circle_samples)
    slack = tol.eps_residual * (1.0 + gap.max_coeff)
    if min_val < -slack:
        failed.append("iv")
        details["iv"] = (
            f"4|D|^2 - |E|^2 reaches {min_val:.3e} at angle {arg_min:.6f}"
        )

    if failed:
        raise ConditionFailed(failed, details)
    return GammaInner(E=e, D=d, n=n, tol=tol, strict=strict, d_circle_zeros=circle_zeros)


def eval_h(h: GammaInner, lam: complex) -> tuple[complex, complex]:
    """Evaluate (s, p) = (E/D, D~/D) at a point of the closed disc."""
    return _h_values(h, complex(lam))


def _h_values(h: GammaInner, lam):
    """(s, p) at lam: one complex point, or elementwise over an ndarray.

    Each guard tests the worst point. A single point never enters numpy,
    whose per-call overhead would dominate its cost.
    """
    many = isinstance(lam, np.ndarray)
    far = lam.flat[np.argmax(np.abs(lam))] if many else lam
    if abs(far) > 1.0 + h.tol.eps_circle:
        raise ValueError(f"|lambda| = {abs(far):.6g} lies outside the closed disc")
    den = h.D(lam)
    near = lam.flat[np.argmin(np.abs(den))] if many else lam
    if abs(h.D(near)) <= h.tol.eps_trim * (1.0 + h.D.max_coeff):
        raise PoleOnDomain(f"D vanishes at {near:.6g}")
    return h.E(lam) / den, h.d_reflected(lam) / den


def from_inner_pair(
    phi: tuple[Poly, Poly, int],
    psi: tuple[Poly, Poly, int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GammaInner:
    """The inner map (phi + psi, phi psi) built from two Blaschke products.

    Each argument is (numerator, denominator, degree) with numerator equal to
    the degree-reflection of the denominator and the denominator zero-free on
    the closed disc.
    """
    for name, (num, den, deg_bound) in (("phi", phi), ("psi", psi)):
        if deg_bound < 0 or den.is_zero():
            raise NotInner(f"{name}: invalid Blaschke data")
        mirror = conj_reciprocal(den, deg_bound)
        gap = max(
            abs(a - b)
            for a, b in zip(num.padded(deg_bound + 1), mirror.padded(deg_bound + 1))
        )
        if gap > tol.eps_residual * (1.0 + den.max_coeff):
            raise NotInner(f"{name}: numerator is not the reflected denominator")
        if den.degree > 0:
            for z, _ in roots_with_multiplicity(den, tol):
                if abs(z) < 1.0 + tol.eps_circle:
                    raise NotInner(f"{name}: denominator vanishes on the closed disc")

    a_num, b_den, a_deg = phi
    c_num, f_den, c_deg = psi
    e = a_num * f_den + c_num * b_den
    d = b_den * f_den
    return validate(e, d, a_deg + c_deg, tol)


# -- canonical example families ----------------------------------------------


def h_nu(nu: int, r: float, tol: ToleranceConfig = DEFAULT_TOL) -> GammaInner:
    """The family with one simple interior royal node and 2 nu + 1 circle nodes.

    E = 2 (1 - r) lambda^{nu + 1}, D = 1 + r lambda^{2 nu + 1}, n = 2 nu + 2.
    """
    if nu < 0:
        raise BadParameter("nu must be a nonnegative integer")
    if not 0.0 < r < 1.0:
        raise BadParameter("r must lie strictly between 0 and 1")
    e = Poly([0.0] * (nu + 1) + [2.0 * (1.0 - r)])
    d = Poly([1.0] + [0.0] * (2 * nu) + [r])
    return validate(e, d, 2 * nu + 2, tol)


def geodesic(beta: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GammaInner:
    """The degree-one map (beta + conj(beta) lambda, lambda) for |beta| <= 1."""
    beta = complex(beta)
    if abs(beta) > 1.0 + tol.eps_circle:
        raise BadParameter("beta must lie in the closed unit disc")
    return validate(Poly([beta, beta.conjugate()]), Poly([1.0]), 1, tol)


def superficial(
    omega: complex,
    p_den: Poly,
    m: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GammaInner:
    """The boundary-valued map (omega + conj(omega) p, p) over p = p_den~/p_den."""
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > tol.eps_circle:
        raise BadParameter("omega must be unimodular")
    omega /= abs(omega)
    if m is None:
        m = p_den.degree
    if m < 1 or p_den.degree > m or p_den.is_zero():
        raise BadParameter("p_den must be nonzero with degree at most m >= 1")
    if p_den.degree > 0:
        for z, _ in roots_with_multiplicity(p_den, tol):
            if abs(z) < 1.0 + tol.eps_circle:
                raise BadParameter("p_den must be zero-free on the closed disc")
    e = omega * p_den + omega.conjugate() * conj_reciprocal(p_den, m)
    return validate(e, p_den, m, tol)
