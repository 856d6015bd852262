"""Constructing inner maps from prescribed royal nodes and zeros of s.

Given disc zeros alpha_j and circle zeros tau_j of s with 2 k0 + k1 = n, and
royal nodes sigma_j (n of them, distinct from the tau_j), the recipe builds
R = t+ prod Q_sigma and E = t prod Q_alpha prod L_tau, factors the strictly
positive circle function lambda^{-n} R + |E|^2 as 4 |D|^2, and returns
h = (omega E / D, omega^2 D~ / D). The same machinery runs backwards to
recover a specification from a validated map, produce convex-combination
witnesses for non-extreme maps, and combine maps sharing the same p.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadSpec,
    DifferentSecondComponent,
    ExtremeNoWitness,
    GammaKitError,
)
from .inner import GammaInner, circle_gap, validate
from .polynomials import Poly, l_factor, poly_from_roots, q_factor, roots_with_multiplicity
from .royal import royal_polynomial, royal_profile
from .spectral import circle_extrema, fejer_riesz, to_trig_shifted
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class SynthesisSpec:
    """Prescription data: zeros of s, royal nodes, and the free parameters.

    alphas: disc zeros of s (modulus < 1), taus: circle zeros of s, sigmas:
    royal nodes in the closed disc; the counts satisfy 2 k0 + k1 = n with
    n = len(sigmas). t_plus scales the royal polynomial, t scales E, omega
    rotates the spectral factor. Circle-adjacent sigmas, the taus and omega
    are snapped to exact unit modulus on construction.
    """

    alphas: tuple[complex, ...]
    taus: tuple[complex, ...]
    sigmas: tuple[complex, ...]
    t_plus: float
    t: float
    omega: complex
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        tol = self.tol
        alphas = tuple(complex(a) for a in self.alphas)
        taus = []
        for tval in self.taus:
            tval = complex(tval)
            if abs(abs(tval) - 1.0) > tol.eps_circle:
                raise BadSpec(f"tau = {tval:.6g} is not on the unit circle")
            taus.append(tval / abs(tval))
        sigmas = []
        for sig in self.sigmas:
            sig = complex(sig)
            mod = abs(sig)
            if mod > 1.0 + tol.eps_circle:
                raise BadSpec(f"sigma = {sig:.6g} lies outside the closed disc")
            if abs(mod - 1.0) <= tol.eps_circle:
                sig /= mod
            sigmas.append(sig)

        for a in alphas:
            if abs(a) >= 1.0:
                raise BadSpec(f"alpha = {a:.6g} must lie in the open disc")
        n = len(sigmas)
        if n < 1:
            raise BadSpec("at least one royal node is required")
        if 2 * len(alphas) + len(taus) != n:
            raise BadSpec(
                f"2 k0 + k1 = {2 * len(alphas) + len(taus)} does not match n = {n}"
            )
        for sig in sigmas:
            for tval in taus:
                if abs(sig - tval) <= tol.eps_circle:
                    raise BadSpec(f"royal node {sig:.6g} collides with s-zero {tval:.6g}")
        if not self.t_plus > 0.0:
            raise BadSpec("t_plus must be strictly positive")
        if self.t == 0.0:
            raise BadSpec("t must be a nonzero real")
        omega = complex(self.omega)
        if abs(omega) == 0.0:
            raise BadSpec("omega must be unimodular")
        omega /= abs(omega)

        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "taus", tuple(taus))
        object.__setattr__(self, "sigmas", tuple(sigmas))
        object.__setattr__(self, "t_plus", float(self.t_plus))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return len(self.sigmas)


def build_re(spec: SynthesisSpec) -> tuple[Poly, Poly]:
    """The royal polynomial t+ prod Q_sigma and the n-symmetric E from the spec."""
    tol = spec.tol
    r = Poly([spec.t_plus])
    for sig in spec.sigmas:
        r = r * q_factor(sig, tol)
    e = Poly([spec.t])
    for alpha in spec.alphas:
        e = e * q_factor(alpha, tol)
    for tau in spec.taus:
        e = e * l_factor(tau, tol)
    return r, e


def _factored_gap_values(spec: SynthesisSpec):
    """Exact circle samples of lambda^{-n} R + |E|^2 from the factored form.

    Each elementary factor is O(1), so the values keep machine-relative
    accuracy even where the assembled coefficients would cancel badly; this
    feeds the spectral factor refinement.
    """

    def evaluate(ts):
        lam = np.exp(1j * np.asarray(ts, dtype=float))
        royal = np.full(lam.shape, spec.t_plus, dtype=complex)
        for sig in spec.sigmas:
            royal *= (lam - sig) * (1.0 - sig.conjugate() * lam)
        royal /= lam ** spec.n
        e_vals = np.full(lam.shape, spec.t, dtype=complex)
        for alpha in spec.alphas:
            e_vals *= (lam - alpha) * (1.0 - alpha.conjugate() * lam)
        for tau in spec.taus:
            e_vals *= lam - tau
        return royal.real + np.abs(e_vals) ** 2

    return evaluate


def _factor_symbol(spec: SynthesisSpec, tol: ToleranceConfig) -> tuple[Poly, Poly]:
    """E and the outer factor D0 with |D0|^2 = lambda^{-n} R + |E|^2 on the circle."""
    r, e = build_re(spec)
    f = to_trig_shifted(r + e * e, spec.n, tol)
    return e, fejer_riesz(f, tol, value_fn=_factored_gap_values(spec))


def synthesize(spec: SynthesisSpec, tol: ToleranceConfig | None = None) -> GammaInner:
    """Build the inner map of degree exactly n prescribed by the spec.

    On the circle, lambda^{-n} (R + E^2) equals lambda^{-n} R + |E|^2 because
    E is n-symmetric; that trigonometric polynomial is strictly positive
    since the sigmas avoid the taus, so its outer spectral factor D (halved,
    then rotated by conj(omega)) completes the pair.
    """
    tol = tol or spec.tol
    e, d0 = _factor_symbol(spec, tol)
    d = (0.5 * spec.omega.conjugate()) * d0
    return validate(e, d, spec.n, tol)


def recover_spec(h: GammaInner, tol: ToleranceConfig | None = None) -> SynthesisSpec:
    """Invert the synthesis recipe on a validated map.

    Royal nodes come from the royal profile, zeros of s from the roots of E
    (the reflected partners outside the disc are dropped), the scalars t and
    t_plus from coefficient ratios against the monic factor products, and
    omega from the phase of D against the canonically normalized spectral
    factor. Synthesizing the result reproduces h up to the real-scalar
    representation equivalence.
    """
    tol = tol or h.tol
    profile = royal_profile(h, tol)
    sigmas = []
    for node in profile.nodes:
        sigmas.extend([node.location] * node.multiplicity)

    if h.E.is_zero():
        raise BadSpec("s vanishes identically; no nonzero t reproduces it")

    alphas = []
    taus = []
    for z, m in roots_with_multiplicity(h.E, tol):
        radius = abs(z)
        if abs(radius - 1.0) <= tol.eps_circle:
            taus.extend([z / radius] * m)
        elif radius < 1.0:
            alphas.extend([z] * m)

    monic = SynthesisSpec(
        alphas=tuple(alphas),
        taus=tuple(taus),
        sigmas=tuple(sigmas),
        t_plus=1.0,
        t=1.0,
        omega=1.0,
        tol=tol,
    )
    node_product, factor = build_re(monic)
    t = _coeff_ratio(h.E, factor).real
    t_plus = _coeff_ratio(royal_polynomial(h), node_product).real
    if not t_plus > 0.0:
        raise BadSpec("recovered royal scaling is not positive")

    provisional = replace(monic, t_plus=t_plus, t=t)
    _, d0 = _factor_symbol(provisional, tol)
    ratio = _coeff_ratio(h.D, d0)
    omega = (ratio / abs(ratio)).conjugate()
    return replace(provisional, omega=omega)


def _coeff_ratio(num: Poly, den: Poly) -> complex:
    """Ratio num[j] / den[j] at the most significant coefficient of den."""
    if den.is_zero():
        raise BadSpec("cannot relate against a zero polynomial")
    j = max(range(len(den.coeffs)), key=lambda i: abs(den.coeffs[i]))
    return num.coeff(j) / den.coeffs[j]


def _perturbation_direction(h: GammaInner, circle_taus) -> Poly:
    """The n-symmetric polynomial g along which E may be perturbed.

    For k = 0 the direction is E itself (or D + D~ when s vanishes); for
    k >= 1 it vanishes to order two at every circle node, with the parity of
    n deciding between the plain and the rotated variant.
    """
    n = h.n
    k = len(circle_taus)
    if k == 0:
        if not h.E.is_zero():
            return h.E
        return h.D + h.d_reflected

    roots = [(0j, n // 2 - k)] + [(tau, 2) for tau in circle_taus]
    if n % 2 == 0:
        front = 1.0 + 0.0j
        for tau in circle_taus:
            front *= tau.conjugate()
    else:
        roots.append((circle_taus[0], 1))
        front = -circle_taus[0].conjugate()
        for tau in circle_taus:
            front *= tau.conjugate() ** 2
        front = cmath.sqrt(front)
    return front * poly_from_roots(roots)


def witness_non_extreme(
    h: GammaInner, tol: ToleranceConfig | None = None
) -> tuple[float, GammaInner, GammaInner]:
    """A strict convex decomposition h = (h+ + h-) / 2 when 2k <= n.

    The perturbation size t starts at 1 and halves until the circle minimum
    of 4 |D|^2 - |E +- t g|^2 is nonnegative for both signs; a small enough
    t always succeeds when 2k <= n. ``circle_extrema`` estimates that minimum
    by a grid scan plus local refinement, not a certified bound (ROADMAP
    defect C). Raises ``ExtremeNoWitness`` when 2k > n, in which case no
    decomposition exists.
    """
    tol = tol or h.tol
    profile = royal_profile(h, tol)
    if 2 * profile.k > profile.n:
        raise ExtremeNoWitness(
            f"type {profile.type_pair} satisfies 2k > n; the map is s-extreme"
        )

    circle_taus = []
    for node in profile.circle_nodes():
        circle_taus.extend([node.location] * node.multiplicity)
    g = _perturbation_direction(h, circle_taus)

    t_step = 1.0
    for _ in range(60):
        ok = True
        for sign in (1.0, -1.0):
            gap = circle_gap(h.E + (sign * t_step) * g, h.D)
            min_val, _ = circle_extrema(gap, tol.circle_samples)
            if min_val < -0.5 * tol.eps_residual * (1.0 + gap.max_coeff):
                ok = False
                break
        if ok:
            break
        t_step *= 0.5
    else:
        raise GammaKitError("no admissible perturbation size found in 60 halvings")

    h_plus = validate(h.E + t_step * g, h.D, h.n, tol, strict=h.strict)
    h_minus = validate(h.E + (-t_step) * g, h.D, h.n, tol, strict=h.strict)
    return t_step, h_plus, h_minus


def convex_combine(h1: GammaInner, h2: GammaInner, t: float) -> GammaInner:
    """The inner map t h1 + (1 - t) h2 for maps sharing the same p.

    The denominators must agree up to a nonzero real scalar (the
    representation freedom); anything else raises
    :class:`DifferentSecondComponent`.
    """
    if not 0.0 <= t <= 1.0:
        raise BadSpec("the combination weight must lie in [0, 1]")
    tol = h1.tol
    if h1.n != h2.n:
        raise DifferentSecondComponent(f"degree bounds differ: {h1.n} != {h2.n}")
    c = _coeff_ratio(h2.D, h1.D)
    scale = 1.0 + h1.D.max_coeff * abs(c) + h2.D.max_coeff
    if abs(c) == 0.0 or abs(c.imag) > tol.eps_residual * abs(c):
        raise DifferentSecondComponent("denominators are not real multiples of each other")
    width = max(len(h1.D.coeffs), len(h2.D.coeffs))
    mismatch = max(
        abs(b - c * a) for a, b in zip(h1.D.padded(width), h2.D.padded(width))
    )
    if mismatch > tol.eps_residual * scale:
        raise DifferentSecondComponent("denominators differ beyond a scalar multiple")

    rescaled = (1.0 / c.real) * h2.E
    combined = t * h1.E + (1.0 - t) * rescaled
    return validate(combined, h1.D, h1.n, tol, strict=h1.strict)
