"""Royal polynomial, royal nodes, type classification and extremity tests.

The royal polynomial of h = (E/D, D~/D) is R = 4 D D~ - E^2, read off the
cached circle gap as lambda^n (4|D|^2 - |E|^2) (E is n-symmetric). Its zeros
in the closed disc are the points h maps onto the variety s^2 = 4p. Interior
zeros count with full order, circle zeros (always of even order) with half,
and the resulting type (n, k) decides extremity: h is an extreme point of
the inner maps exactly when 2k > n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GammaKitError, OddCircleZero, OrderOverflow, RoyalVariety
from .inner import GammaInner, eval_h
from .polynomials import _CLUSTER_CAP, Poly, _check_int, is_n_symmetric
from .polynomials import partition_circle_roots, roots_with_multiplicity
from .spectral import _circle_minimum, to_trig_shifted
from .tolerances import DEFAULT_TOL, ToleranceConfig, _band_miss, _unimodular


class NodeRegion(Enum):
    DISC = "disc"
    CIRCLE = "circle"


@dataclass(frozen=True)
class RoyalNode:
    location: complex
    multiplicity: int
    region: NodeRegion


@dataclass(frozen=True)
class RoyalProfile:
    """Royal nodes of an inner map together with its type (n, k)."""

    nodes: tuple[RoyalNode, ...]
    n: int
    k: int

    @property
    def type_pair(self) -> tuple[int, int]:
        return self.n, self.k

    def circle_nodes(self) -> tuple[RoyalNode, ...]:
        return tuple(nd for nd in self.nodes if nd.region is NodeRegion.CIRCLE)

    def disc_nodes(self) -> tuple[RoyalNode, ...]:
        return tuple(nd for nd in self.nodes if nd.region is NodeRegion.DISC)


def royal_polynomial(h: GammaInner) -> Poly:
    """R = lambda^n (4|D|^2 - |E|^2): coefficient k is a_{k-n} of ``h.gap``.

    This is 4 D D~ - E^2 for n-symmetric E, and exactly self-inversive, kept
    as computed: small coefficients may carry the disc zeros of a graded R.
    :class:`RoyalVariety` is raised only when every coefficient is at most
    ``eps_trim`` times the larger autocorrelation peak, 4 ||D||^2 or ||E||^2
    (the constant terms of 4 |D|^2 and |E|^2, from D's and E's coefficients).
    """
    d_norm = sum(c * c.conjugate() for c in h.D.coeffs).real
    scale = max(4.0 * d_norm, sum(abs(c) ** 2 for c in h.E.coeffs))
    raw = [0j] * (h.n - h.gap.n) + list(h.gap.coeffs)
    if all(abs(c) <= h.tol.eps_trim * scale for c in raw):
        raise RoyalVariety("the royal polynomial vanishes identically")
    return Poly(raw)


def is_n_balanced(r: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when deg R <= 2n, R is 2n-symmetric and lambda^{-n} R >= 0 on the circle.

    The last test allows -eps_residual (1 + the largest coefficient). It is certified
    when the grid floor of lambda^{-n} R clears that slack; otherwise ``circle_extrema``'s
    refined minimum decides, an estimate (ROADMAP defect C), as for every False.
    """
    _check_int(n, "n")
    if r.is_zero() or r.degree > 2 * n or not is_n_symmetric(r, 2 * n, tol):
        return False
    shifted = to_trig_shifted(r, n, tol)
    bound = -tol.eps_residual * (1.0 + shifted.max_coeff)
    return _circle_minimum(shifted, bound, tol.circle_samples)[0] >= bound


def royal_profile(h: GammaInner) -> RoyalProfile:
    """Royal nodes of h with multiplicities and the type (n, k).

    Zeros of R inside the disc keep their order as multiplicity. Zeros on
    the circle carry half their order; each is the unimodular point of a
    merged cluster from the parity-aware snap of ``partition_circle_roots``
    (circle zeros of R always have even order). Zeros outside the disc are
    the reflected partners and are discarded.

    Every decision reads ``h.tol``. The profile is computed once per map and
    kept on that instance; later calls, such as those inside ``recover_spec``
    and ``witness_non_extreme``, return the same object without solving R again.
    """
    if h._royal_profile is not None:
        return h._royal_profile
    r = h.royal
    roots = roots_with_multiplicity(r, h.tol, keep="disc")
    try:
        circle_raw, inside, _ = partition_circle_roots(roots, r, h.tol)
    except OddCircleZero as exc:
        raise OddCircleZero(f"royal polynomial: {exc}") from exc

    disc_nodes = [RoyalNode(z, m, NodeRegion.DISC) for z, m in inside]
    circle_nodes = [RoyalNode(z, order // 2, NodeRegion.CIRCLE) for z, order in circle_raw]

    disc_nodes.sort(key=lambda nd: (abs(nd.location), cmath.phase(nd.location)))
    circle_nodes.sort(key=lambda nd: cmath.phase(nd.location) % (2.0 * math.pi))
    nodes = tuple(disc_nodes + circle_nodes)
    k = sum(nd.multiplicity for nd in circle_nodes)
    n = k + sum(nd.multiplicity for nd in disc_nodes)
    profile = RoyalProfile(nodes=nodes, n=n, k=k)
    object.__setattr__(h, "_royal_profile", profile)
    return profile


_FLATNESS_CAP = 12


def boundary_flatness(h: GammaInner, tau: complex) -> int:
    """Order to which |s| attains the value 2 along the circle at tau.

    0 when 2 - |s(tau)| exceeds 1e-8; otherwise 2 nu for the circle node of
    ``royal_profile(h)`` nearest tau, of multiplicity nu (the paper's flatness
    statement). Raises what the profile raises, ``OrderOverflow`` on the royal
    variety and past ``_FLATNESS_CAP``, and ``GammaKitError`` when no circle node
    lies within ``_CLUSTER_CAP`` of tau. tau must lie in ``h.tol``'s circle band.
    """
    unit = _unimodular(complex(tau), h.tol)
    if unit is None:
        raise ValueError(f"tau must lie on the unit circle: {_band_miss('tau', tau, h.tol)}")
    s, _ = eval_h(h, unit)
    if 2.0 - abs(s) > 1e-8:
        return 0
    try:
        nodes = royal_profile(h).circle_nodes()
    except RoyalVariety as exc:
        raise OrderOverflow(f"|s| = 2 on the whole circle: {exc}") from exc
    nearest = min(nodes, key=lambda nd: abs(nd.location - unit), default=None)
    if nearest is None or abs(nearest.location - unit) > _CLUSTER_CAP:
        raise GammaKitError(f"|s(tau)| = {abs(s)!r} at tau = {unit!r}, but the royal profile "
                            f"has no circle node within {_CLUSTER_CAP} (nearest: {nearest})")
    order = 2 * nearest.multiplicity
    if order > _FLATNESS_CAP:
        raise OrderOverflow(f"order {order} exceeds the cap {_FLATNESS_CAP}")
    return order


def is_s_extreme(h: GammaInner) -> bool:
    """Extremity in the convex set of inner maps sharing p: exactly 2k > n."""
    profile = royal_profile(h)
    return 2 * profile.k > profile.n


def is_superficial(h: GammaInner) -> complex | None:
    """The unimodular omega with E = omega D + conj(omega) D~, if one exists.

    E = a D + b D~ is fitted by least squares with a and b independent. When
    the form holds, the minimum-norm fit has b = conj(a) (also when D~ is a
    multiple of D), so omega is (a + conj(b)) / 2 projected to the circle and
    verified coefficientwise; ``None`` means h does not have the
    boundary-valued form (omega + conj(omega) p, p). The residual test reads
    ``h.tol.eps_residual``.
    """
    width = h.n + 1
    d_col = np.array(h.D.padded(width), dtype=complex)
    dr_col = np.array(h.d_reflected.padded(width), dtype=complex)
    target = np.array(h.E.padded(width), dtype=complex)
    matrix = np.column_stack([d_col, dr_col])
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    fitted, fitted_conj = solution

    averaged = 0.5 * (fitted + fitted_conj.conjugate())
    if averaged == 0.0:
        return None
    omega = averaged / abs(averaged)
    residual = target - omega * d_col - omega.conjugate() * dr_col
    scale = 1.0 + max(h.E.max_coeff, h.D.max_coeff)
    if float(np.max(np.abs(residual))) <= h.tol.eps_residual * scale:
        return complex(omega)
    return None
