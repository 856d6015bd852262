"""Royal polynomial, royal nodes, type classification and extremity tests.

The royal polynomial of h = (E/D, D~/D) is R = 4 D D~ - E^2; its zeros in
the closed disc are the points h maps onto the variety s^2 = 4p. Interior
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

from .errors import OddCircleZero, OrderOverflow, RoyalVariety
from .inner import GammaInner, _h_values
from .polynomials import Poly, is_n_symmetric, roots_with_multiplicity
from .spectral import circle_extrema, partition_circle_roots, to_trig_shifted
from .tolerances import DEFAULT_TOL, ToleranceConfig


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
    """R = 4 D D~ - E^2, trimmed against the scale of its two halves.

    The difference suffers catastrophic cancellation when h maps into the
    royal variety; coefficients below ``eps_trim`` relative to the summand
    scale are therefore snapped to zero, and a fully vanishing R raises
    :class:`RoyalVariety`.
    """
    product = 4.0 * (h.D * h.d_reflected)
    square = h.E * h.E
    width = max(len(product.coeffs), len(square.coeffs))
    raw = [a - b for a, b in zip(product.padded(width), square.padded(width))]
    scale = max(product.max_coeff, square.max_coeff, 1e-300)
    cutoff = h.tol.eps_trim * scale
    snapped = [0j if abs(c) <= cutoff else c for c in raw]
    r = Poly(snapped)
    if r.is_zero():
        raise RoyalVariety("the royal polynomial vanishes identically")
    return r


def is_n_balanced(r: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when deg R <= 2n, R is 2n-symmetric and lambda^{-n} R >= 0 on the circle."""
    if r.is_zero() or r.degree > 2 * n or not is_n_symmetric(r, 2 * n, tol):
        return False
    shifted = to_trig_shifted(r, n, tol)
    min_val, _ = circle_extrema(shifted, tol.circle_samples)
    return min_val >= -tol.eps_residual * (1.0 + shifted.max_coeff)


def _circle_gap_derivatives(h: GammaInner, t: float) -> tuple[float, float]:
    """First and second t-derivatives of 4|D(e^{it})|^2 - |E(e^{it})|^2.

    Evaluated pointwise from E and D, whose coefficients are clean; going
    through the royal polynomial's coefficients instead can lose many digits
    on the circle when its coefficient range is large.
    """
    z = cmath.exp(1j * t)

    def parts(p: Poly):
        d1 = p.derivative()
        d2 = d1.derivative()
        v0 = p(z)
        v1 = 1j * z * d1(z)
        v2 = -z * d1(z) - z * z * d2(z)
        return v0, v1, v2

    d0, d1, d2 = parts(h.D)
    e0, e1, e2 = parts(h.E)
    first = 8.0 * (d0.conjugate() * d1).real - 2.0 * (e0.conjugate() * e1).real
    second = (
        8.0 * ((d0.conjugate() * d2).real + abs(d1) ** 2)
        - 2.0 * ((e0.conjugate() * e2).real + abs(e1) ** 2)
    )
    return first, second


def _refine_circle_angle(h: GammaInner, angle: float, order: int) -> float:
    """Newton refinement of a circle node's angle at the given zero order.

    The gap function vanishes to the cluster order, so its first derivative
    has a zero of multiplicity order - 1 there; the multiplicity-aware
    Newton step converges quadratically to it.
    """
    t = angle
    for _ in range(20):
        first, second = _circle_gap_derivatives(h, t)
        if second == 0.0:
            break
        step = (order - 1) * first / second
        if abs(step) > 5e-2:
            break
        t -= step
        if abs(step) < 1e-14:
            break
    return t if abs(t - angle) <= 5e-2 else angle


def royal_profile(h: GammaInner, tol: ToleranceConfig | None = None) -> RoyalProfile:
    """Royal nodes of h with multiplicities and the type (n, k).

    Zeros of R inside the disc keep their order as multiplicity. Zeros on
    the circle (located by the parity-aware snap of
    ``partition_circle_roots``, since circle zeros of R always have even
    order) carry half their order; their angles get a final Newton
    refinement on the real circle function. Zeros outside the disc are the
    reflected partners and are discarded.

    The profile for ``h.tol`` (``tol`` omitted or equal) is computed once per
    map and kept on that instance; later calls, such as those inside
    ``recover_spec`` and ``witness_non_extreme``, return the same object
    without solving R again. A different ``tol`` recomputes.
    """
    memo = tol is None or tol == h.tol
    if memo and h._royal_profile is not None:
        return h._royal_profile
    tol = tol or h.tol
    r = royal_polynomial(h)
    roots = roots_with_multiplicity(r, tol)
    try:
        circle_raw, inside, _ = partition_circle_roots(roots, r, tol)
    except OddCircleZero as exc:
        raise OddCircleZero(f"royal polynomial: {exc}") from exc

    disc_nodes = [RoyalNode(z, m, NodeRegion.DISC) for z, m in inside]

    circle_nodes = []
    for z, order in circle_raw:
        angle = _refine_circle_angle(h, cmath.phase(z), order)
        circle_nodes.append(RoyalNode(cmath.exp(1j * angle), order // 2, NodeRegion.CIRCLE))

    disc_nodes.sort(key=lambda nd: (abs(nd.location), cmath.phase(nd.location)))
    circle_nodes.sort(key=lambda nd: cmath.phase(nd.location) % (2.0 * math.pi))
    nodes = tuple(disc_nodes + circle_nodes)
    k = sum(nd.multiplicity for nd in circle_nodes)
    n = k + sum(nd.multiplicity for nd in disc_nodes)
    profile = RoyalProfile(nodes=nodes, n=n, k=k)
    if memo:
        object.__setattr__(h, "_royal_profile", profile)
    return profile


_FLATNESS_FLOOR = 1e-13


def boundary_flatness(
    h: GammaInner,
    tau: complex,
    max_order: int = 12,
    tol: ToleranceConfig | None = None,
) -> int:
    """Order to which |s| attains the value 2 along the circle at tau.

    Returns 0 when |s(tau)| stays below 2. Otherwise the vanishing order of
    2 - |s(e^{it})| is estimated from symmetric dyadic samples with one
    Richardson extrapolation step; at a circle royal node of multiplicity nu
    the result is 2 nu. The base scale shrinks adaptively until the gap is
    small, so sharply curved nodes (and nearby neighbours) stop contaminating
    the leading-order model.
    """
    tol = tol or h.tol
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > tol.eps_circle:
        raise ValueError("tau must lie on the unit circle")
    tau /= abs(tau)
    t0 = cmath.phase(tau)

    # Every offset the search below can reach: the base halves from 0.2 at
    # most 15 times, and five dyadic samples follow it. One batch covers all.
    deltas = 0.2 * 0.5 ** np.arange(20)
    ts = t0 + np.concatenate(([0.0], deltas, -deltas))
    s, _ = _h_values(h, np.exp(1j * ts))
    gap = 2.0 - np.abs(s)
    if gap[0] > 1e-8:
        return 0
    ahead, behind = gap[1:].reshape(2, -1)
    symmetric = np.maximum(0.5 * (ahead + behind), 0.0).tolist()

    start = 0
    while symmetric[start] > 0.05 and deltas[start] > 1e-5:
        start += 1

    sampled = symmetric[start : start + 5]
    estimates = []
    for lo, hi in zip(sampled, sampled[1:]):
        if lo > _FLATNESS_FLOOR and hi > _FLATNESS_FLOOR:
            estimates.append(math.log(lo / hi) / math.log(2.0))
    if not estimates:
        raise OrderOverflow("flatness exceeds every resolvable order at this point")
    if len(estimates) >= 2:
        refined = estimates[-1] + (estimates[-1] - estimates[-2]) / 3.0
    else:
        refined = estimates[-1]
    order = max(int(round(refined)), 0)
    if order > max_order:
        raise OrderOverflow(f"estimated order {order} exceeds the cap {max_order}")
    return order


def is_s_extreme(h: GammaInner) -> bool:
    """Extremity in the convex set of inner maps sharing p: exactly 2k > n."""
    profile = royal_profile(h)
    return 2 * profile.k > profile.n


def is_superficial(
    h: GammaInner, tol: ToleranceConfig | None = None
) -> complex | None:
    """The unimodular omega with E = omega D + conj(omega) D~, if one exists.

    The candidate is fitted by least squares treating omega and its conjugate
    as independent unknowns, projected to the circle, and then verified
    coefficientwise; ``None`` means h does not have the boundary-valued form
    (omega + conj(omega) p, p).
    """
    tol = tol or h.tol
    width = h.n + 1
    d_col = np.array(h.D.padded(width), dtype=complex)
    dr_col = np.array(h.d_reflected.padded(width), dtype=complex)
    target = np.array(h.E.padded(width), dtype=complex)
    matrix = np.column_stack([d_col, dr_col])
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    fitted, fitted_conj = solution

    candidates = []
    if abs(fitted) > 0.0:
        candidates.append(fitted / abs(fitted))
    if abs(fitted_conj) > 0.0:
        candidates.append(fitted_conj.conjugate() / abs(fitted_conj))
    averaged = 0.5 * (fitted + fitted_conj.conjugate())
    if abs(averaged) > 0.0:
        candidates.append(averaged / abs(averaged))

    scale = 1.0 + max(h.E.max_coeff, h.D.max_coeff)
    for omega in candidates:
        residual = target - omega * d_col - omega.conjugate() * dr_col
        if float(np.max(np.abs(residual))) <= tol.eps_residual * scale:
            return complex(omega)
    return None
