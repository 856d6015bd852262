"""Validated (E, D, n) representation of rational inner maps into the bidisc.

A rational inner map h = (s, p) of degree n is carried by two polynomials:
s = E / D and p = D~ / D, where D~ is the degree-n conjugate reciprocal of D.
Validation enforces the four representation conditions: degree bounds, the
n-symmetry of E, zero-freeness of D on the closed disc, and the circle
inequality |E| <= 2 |D|. That inequality passes certified when the grid floor
of 4 |D|^2 - |E|^2 (``spectral._grid_floor``) clears its slack; otherwise its
minimum is the estimate of a grid scan plus local refinement, not a certified
bound (ROADMAP defect C).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import BadParameter, ConditionFailed, NotInner, PoleOnDomain
from .polynomials import (
    Poly,
    _closed_disc_roots,
    _reflection_gap,
    _schur_cohn_outer,
    conj_reciprocal,
    is_n_symmetric,
)
from .spectral import TrigPoly, _circle_minimum, to_trig_modulus_squared
from .tolerances import DEFAULT_TOL, ToleranceConfig, _band_miss, _in_closed_disc, _unimodular


@dataclass(frozen=True)
class GammaInner:
    """A validated rational inner map (E/D, D~/D) of degree n.

    Instances are immutable and produced by :func:`validate`, so D has no zero on the
    closed disc and n is the degree of the Blaschke product p. ``tol`` is the tolerance it
    was validated with, which every analysis of the map reads.
    """

    E: Poly
    D: Poly
    n: int
    tol: ToleranceConfig = field(compare=False)
    # royal_profile's memo; see its docstring.
    _royal_profile: object = field(default=None, init=False, compare=False, repr=False)

    degree = property(lambda self: self.n, doc="The degree n of the map, under a second name.")

    @cached_property
    def d_reflected(self) -> Poly:
        return conj_reciprocal(self.D, self.n)

    @cached_property
    def gap(self) -> TrigPoly:
        """This map's ``circle_gap(E, D)``, 4 |D|^2 - |E|^2, computed once and kept.

        lambda^n times it is R = 4 D D~ - E^2 (n-symmetric E), exactly self-inversive.
        """
        return circle_gap(self.E, self.D)

    @cached_property
    def royal(self) -> Poly:
        from .royal import royal_polynomial  # R = 4 D D~ - E^2; royal imports this module
        return royal_polynomial(self)

    def eval(self, lam: complex) -> tuple[complex, complex]:
        return eval_h(self, lam)

    __call__ = eval


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
    zeros on the closed disc, by the Schur-Cohn test, with roots solved only
    to name a zero; (iv) 4|D|^2 - |E|^2 >= 0 on the circle, from the exact
    autocorrelations: a pass is certified when the grid floor clears the slack
    -eps_residual (1 + the largest coefficient), and is otherwise decided by
    ``circle_extrema``'s refined minimum, an estimate, not a certified bound (defect C),
    as is every failure.

    ``strict=False`` is the paper's converse: (iii) asks only for no zero of D on the
    open disc, from D's roots. (iv) makes E vanish at each circle zero tau of D, so
    once (i)-(iv) hold, tau cancels (``_cancel``) and the pair of degree n - 1 is
    validated the same way: the map returned is reduced, and n is its degree. A pair
    that cancels to degree 0, a constant map, raises :class:`BadParameter`.

    Raises :class:`ConditionFailed` carrying every failed condition label.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadParameter(f"the degree bound n must be a positive integer, not {n!r}")

    d_failure = tau = None
    if d.is_zero():
        d_failure = "D is the zero polynomial"
    elif d.degree > n:
        pass  # reported under (i)
    elif strict:
        zero = _closed_disc_zero(d, tol)
        if zero is not None:
            d_failure = f"D has a zero of modulus {abs(zero):.9g} on the closed disc"
    elif d.degree > 0:
        for z, _, unit in _closed_disc_roots(d, tol):
            if unit is None:
                d_failure = f"D has a zero of modulus {abs(z):.9g} in the open disc"
                break
            tau = unit
    h = _checked(GammaInner(E=e, D=d, n=n, tol=tol), d_failure)
    if tau is not None and n == 1:
        raise BadParameter(f"E and D cancel at D's circle zero {tau:.6g} to a constant map")
    return h if tau is None else validate(_cancel(e, tau), _cancel(d, tau), n - 1, tol, False)


def _cancel(f: Poly, tau: complex) -> Poly:
    """sqrt(-tau) times the quotient of f by (lambda - tau), the remainder dropped.

    For D and an E that vanish at the unimodular tau this keeps s = E/D and p = D~/D, and
    an n-symmetric E becomes (n - 1)-symmetric.
    """
    quotient = list(accumulate(reversed(f.coeffs[1:]), lambda carry, c: c + tau * carry))
    return cmath.sqrt(-tau) * Poly(quotient[::-1])


def _checked(h: GammaInner, d_failure=None, gap_checked: bool = False) -> GammaInner:
    """h, once conditions (i), (ii) and, unless ``gap_checked``, (iv) hold; D's (iii)
    failure, if any, comes from the caller.

    (iv) reads the gap's certified grid floor and refines the minimum only when the floor
    does not clear the slack (``spectral._circle_minimum``): a pass on the floor is
    certified, a refined verdict an estimate (defect C). ``gap_checked`` is for a caller
    whose own test of h's gap cleared a stricter slack, as a witness trial does.
    """
    details = {}
    if h.E.degree > h.n or h.D.degree > h.n:
        details["i"] = f"deg E = {h.E.degree}, deg D = {h.D.degree} exceed n = {h.n}"

    if not is_n_symmetric(h.E, h.n, h.tol):
        details["ii"] = f"E is not {h.n}-symmetric"

    if d_failure is not None:
        details["iii"] = d_failure

    if not gap_checked:
        bound = -h.tol.eps_residual * (1.0 + h.gap.max_coeff)
        min_val, arg_min = _circle_minimum(h.gap, bound, h.tol.circle_samples)
        if min_val < bound:
            details["iv"] = f"4|D|^2 - |E|^2 reaches {min_val:.3e} at angle {arg_min:.6f}"

    if details:
        raise ConditionFailed(list(details), details)
    return h


def _closed_disc_zero(p: Poly, tol: ToleranceConfig) -> complex | None:
    """The first computed zero of p in the closed disc (``_closed_disc_roots``), if any.

    Roots are solved for only when Schur-Cohn on p(rho lambda), rho = 1 + eps_circle, fails.
    """
    rho = 1.0 + tol.eps_circle
    if _schur_cohn_outer([c * rho**k for k, c in enumerate(p.coeffs)]):
        return None  # also for constants, zero included
    return next((z for z, _, _ in _closed_disc_roots(p, tol)), None)


def eval_h(h: GammaInner, lam: complex | np.ndarray) -> tuple:
    """(s, p) = (E/D, D~/D) at a point of the closed disc, or elementwise over an ndarray.

    Each guard tests the worst point; an empty array gives two empty complex arrays. A
    single point never enters numpy, whose per-call overhead would dominate its cost.
    """
    many = isinstance(lam, np.ndarray)
    lam = lam if many else complex(lam)
    if many and not lam.size:
        return np.zeros(lam.shape, complex), np.zeros(lam.shape, complex)
    far = lam.flat[np.argmax(np.abs(lam))] if many else lam  # argmax picks a NaN first
    if not _in_closed_disc(far, h.tol):
        raise ValueError(f"lambda lies outside the closed disc: {_band_miss('lambda', far, h.tol)}")
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
        not_int = isinstance(deg_bound, bool) or not isinstance(deg_bound, int)
        if not_int or deg_bound < 0 or den.is_zero():
            raise NotInner(f"{name}: invalid Blaschke data")
        if max(num.degree, den.degree) > deg_bound:
            raise NotInner(f"{name}: a polynomial's degree exceeds the bound {deg_bound}")
        if _reflection_gap(num, den, deg_bound) > tol.eps_residual * (1.0 + den.max_coeff):
            raise NotInner(f"{name}: numerator is not the reflected denominator")
        if _closed_disc_zero(den, tol) is not None:
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
    if isinstance(nu, bool) or not isinstance(nu, int) or nu < 0:
        raise BadParameter(f"nu must be a nonnegative integer, not {nu!r}")
    if not 0.0 < r < 1.0:
        raise BadParameter("r must lie strictly between 0 and 1")
    e = Poly([0.0] * (nu + 1) + [2.0 * (1.0 - r)])
    d = Poly([1.0] + [0.0] * (2 * nu) + [r])
    return validate(e, d, 2 * nu + 2, tol)


def geodesic(beta: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GammaInner:
    """The degree-one map (beta + conj(beta) lambda, lambda) for |beta| <= 1, band snapped."""
    beta = complex(beta)
    if not _in_closed_disc(beta, tol):
        raise BadParameter(f"beta must lie in the closed disc: {_band_miss('beta', beta, tol)}")
    beta = _unimodular(beta, tol) or beta
    return validate(Poly([beta, beta.conjugate()]), Poly([1.0]), 1, tol)


def superficial(
    omega: complex,
    p_den: Poly,
    m: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GammaInner:
    """The boundary-valued map (omega + conj(omega) p, p) over p = p_den~/p_den."""
    unit = _unimodular(complex(omega), tol)
    if unit is None:
        raise BadParameter(f"omega must be unimodular: {_band_miss('omega', omega, tol)}")
    if m is None:
        m = p_den.degree
    if isinstance(m, bool) or not isinstance(m, int):
        raise BadParameter(f"m must be an integer, not {m!r}")
    if m < 1 or p_den.degree > m or p_den.is_zero():
        raise BadParameter("p_den must be nonzero with degree at most m >= 1")
    if _closed_disc_zero(p_den, tol) is not None:
        raise BadParameter("p_den must be zero-free on the closed disc")
    e = unit * p_den + unit.conjugate() * conj_reciprocal(p_den, m)
    return validate(e, p_den, m, tol)
