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
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadSpec,
    DifferentSecondComponent,
    ExtremeNoWitness,
    GammaKitError,
)
from .inner import GammaInner, _checked, validate
from .polynomials import (
    Poly,
    _closed_disc_roots,
    _convolve,
    l_factor,
    poly_from_roots,
    q_factor,
)
from .royal import royal_profile
from .spectral import (
    TrigPoly,
    _correlation,
    _extrema_grid_size,
    _grid_floor,
    _grid_values,
    _moduli_sums,
    _refine_minimum,
    fejer_riesz,
    to_trig_modulus_squared,
    to_trig_shifted,
)
from .tolerances import (
    DEFAULT_TOL, ToleranceConfig, _band_miss, _in_closed_disc, _modulus, _unimodular,
)


@dataclass(frozen=True)
class SynthesisSpec:
    """Prescription data: zeros of s, royal nodes, and the free parameters.

    alphas: disc zeros of s (modulus < 1), taus: circle zeros of s, sigmas:
    royal nodes in the closed disc; the counts satisfy 2 k0 + k1 = n with
    n = len(sigmas). t_plus scales the royal polynomial, t scales E, omega
    rotates the spectral factor. Circle-adjacent sigmas, the taus and omega
    are snapped to exact unit modulus on construction, under ``tol``, which
    ``synthesize`` reads too.
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
        taus = [complex(u) for u in self.taus]
        sigmas = [complex(s) for s in self.sigmas]
        for u in taus:
            if _unimodular(u, tol) is None:
                miss = _band_miss("tau", u, tol)
                raise BadSpec(f"tau = {u:.6g} is not on the unit circle: {miss}")
        for s in sigmas:
            if not _in_closed_disc(s, tol):
                miss = _band_miss("sigma", s, tol)
                raise BadSpec(f"sigma = {s:.6g} lies outside the closed disc: {miss}")
        taus = [_unimodular(u, tol) for u in taus]
        sigmas = [_unimodular(s, tol) or s for s in sigmas]  # the band's sigmas snap to the circle

        for a in alphas:
            if not _modulus(a) < 1.0:
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
        # NaN, which fails both range tests, stands for a non-real (a str, a complex).
        t_plus, t = (float(x.real) if getattr(x, "imag", 1) == 0 else math.nan
                     for x in (self.t_plus, self.t))
        if not 0.0 < t_plus < math.inf:
            raise BadSpec("t_plus must be strictly positive and finite")
        if not 0.0 < abs(t) < math.inf:
            raise BadSpec("t must be a nonzero finite real")
        omega = complex(self.omega)
        if not 0.0 < _modulus(omega) < math.inf:
            raise BadSpec("omega must be a nonzero finite complex")
        omega /= abs(omega)

        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "taus", tuple(taus))
        object.__setattr__(self, "sigmas", tuple(sigmas))
        object.__setattr__(self, "t_plus", t_plus)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return len(self.sigmas)


def build_re(spec: SynthesisSpec) -> tuple[Poly, Poly]:
    """t+ prod Q_sigma (the royal polynomial) and the n-symmetric E, equal to ``Poly`` products:
    each is normalized once, at the end, where only exact trailing zeros go."""
    tol = spec.tol
    r, e = [complex(spec.t_plus)], [complex(spec.t)]
    for sig in spec.sigmas:
        r = _convolve(r, q_factor(sig, tol).coeffs)
    for factor in [q_factor(a, tol) for a in spec.alphas] + [l_factor(u, tol) for u in spec.taus]:
        e = _convolve(e, factor.coeffs)
    return Poly(r), Poly(e)


def synthesize(spec: SynthesisSpec) -> GammaInner:
    """Build the inner map of degree exactly n prescribed by the spec.

    On the circle, lambda^{-n} (R + E^2) equals lambda^{-n} R + |E|^2 because
    E is n-symmetric; that trigonometric polynomial is strictly positive
    since the sigmas avoid the taus, so its outer spectral factor D (halved,
    then rotated by conj(omega)) completes the pair. Every step reads ``spec.tol``,
    which the map keeps.
    """
    r, e = build_re(spec)
    f = to_trig_shifted(r + e * e, spec.n, spec.tol)
    d0 = fejer_riesz(f, spec.tol)
    d = (0.5 * spec.omega.conjugate()) * d0
    return validate(e, d, spec.n, spec.tol)


def recover_spec(h: GammaInner) -> SynthesisSpec:
    """Invert the synthesis recipe on a validated map.

    Royal nodes come from the royal profile, zeros of s from the roots of E
    (the reflected partners outside the disc are dropped), the scalars t and
    t_plus from coefficient ratios against the monic factor products, and
    omega as conj(D(0) / |D(0)|): synthesis sets D = conj(omega) D0 / 2 with
    the outer factor D0 normalized to D0(0) > 0, so no second spectral
    factorization is needed. Synthesizing the result reproduces h up to the
    real-scalar representation equivalence. The roots of E are placed with ``h.tol``,
    which the spec keeps.
    """
    profile = royal_profile(h)
    if profile.n != h.n:  # a node miscounted: a spec of profile.n nodes has another degree
        raise GammaKitError(
            f"the royal profile counts {profile.n} nodes but the map has degree {h.n}"
        )
    sigmas = []
    for node in profile.nodes:
        sigmas.extend([node.location] * node.multiplicity)

    if h.E.is_zero():
        raise BadSpec("s vanishes identically; no nonzero t reproduces it")

    alphas = []
    taus = []
    for z, m, unit in _closed_disc_roots(h.E, h.tol):
        if unit is not None:
            taus.extend([unit] * m)
        else:
            alphas.extend([z] * m)

    monic = SynthesisSpec(
        alphas=tuple(alphas),
        taus=tuple(taus),
        sigmas=tuple(sigmas),
        t_plus=1.0,
        t=1.0,
        omega=1.0,
        tol=h.tol,
    )
    node_product, factor = build_re(monic)
    t = _coeff_ratio(h.E, factor).real
    t_plus = _coeff_ratio(h.royal, node_product).real
    if not t_plus > 0.0:
        raise BadSpec("recovered royal scaling is not positive")

    at_zero = h.D.coeff(0)  # nonzero: D has no zeros in the open disc
    return replace(monic, t_plus=t_plus, t=t, omega=(at_zero / abs(at_zero)).conjugate())


def _coeff_ratio(num: Poly, den: Poly) -> complex:
    """Ratio num[j] / den[j] at the most significant coefficient of den, a nonzero polynomial."""
    mags = list(map(abs, den.coeffs))
    j = mags.index(max(mags))
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


def witness_non_extreme(h: GammaInner) -> tuple[float, GammaInner, GammaInner]:
    """A strict convex decomposition h = (h+ + h-) / 2 when 2k <= n.

    h+- = (E +- t g) / D for the direction g of ``_perturbation_direction``.
    The perturbation size t halves from ``_first_step`` until the circle minimum
    of 4 |D|^2 - |E +- t g|^2 is nonnegative for both signs, up to the
    slack 0.5 eps_residual (1 + max coefficient); a small enough t always
    succeeds when 2k <= n. Raises ``ExtremeNoWitness`` when 2k > n, in which
    case no decomposition exists.

    For real u the gap is the quadratic pencil G0 - u X - u^2 Q with
    G0 = 4|D|^2 - |E|^2 (``h.gap``), X = E conj(g) + g conj(E) and
    Q = |g|^2. Their half spectra and their values on ``circle_extrema``'s grid
    (one batched real inverse FFT) are computed once per call, and each trial
    u = +-t is ``_admissible``: certified when the trial's grid floor clears the slack,
    else an estimate, not a certified bound (ROADMAP defect C). The start skips only
    sizes that the grid test rejects, so t is the one a halving from 1 returns; no t
    below 2^-59 is tried.
    h+ and h- are h with E +- t g, checked for (i) and (ii). They share D and its (iii)
    with h, and take (iv) from the trial that accepted t: the pencil at +-t is their gap
    up to rounding, and it cleared half of (iv)'s slack.
    Every trial reads ``h.tol``.
    """
    tol = h.tol
    profile = royal_profile(h)
    if 2 * profile.k > profile.n:
        raise ExtremeNoWitness(
            f"type {profile.type_pair} satisfies 2k > n; the map is s-extreme"
        )

    circle_taus = []
    for node in profile.circle_nodes():
        circle_taus.extend([node.location] * node.multiplicity)
    g = _perturbation_direction(h, circle_taus)

    cross = np.zeros(max(len(h.E.coeffs), len(g.coeffs), 1), dtype=complex)
    for a, b in ((h.E.coeffs, g.coeffs), (g.coeffs, h.E.coeffs)):
        cross[: len(a)] += _correlation(a, b)
    pencil = (h.gap, TrigPoly.from_half_spectrum(cross), to_trig_modulus_squared(g))
    n = max(f.n for f in pencil)
    halves = np.array([f.coeffs[f.n :] + (0j,) * (n - f.n) for f in pencil])
    spectra = (halves, np.array([_moduli_sums(f.coeffs[f.n :]) for f in pencil]))
    size = _extrema_grid_size(n, tol.circle_samples)
    grids = _grid_values(halves, size)
    slack = 0.5 * tol.eps_residual * (1.0 + sum(f.max_coeff for f in pencil))

    t_step = _first_step(grids, slack)
    while t_step >= 2.0**-59:  # the 60th size of a halving from 1
        # -t only after +t passes
        if _admissible(spectra, grids, t_step, tol) and _admissible(spectra, grids, -t_step, tol):
            break
        t_step *= 0.5
    else:
        raise GammaKitError("no admissible perturbation size found in 60 halvings")

    h_plus = _checked(replace(h, E=h.E + t_step * g), gap_checked=True)
    h_minus = _checked(replace(h, E=h.E + -t_step * g), gap_checked=True)
    return t_step, h_plus, h_minus


def _first_step(grids, slack: float) -> float:
    """2^(1 + ceil(log2 u*)) within [2^-59, 1]; 1 when u* is not in (0, 1), NaN included.

    u* = min 2 (G0 + s) / (|X| + sqrt(X^2 + 4 Q (G0 + s))) on the grid is the largest |u|
    with G0 - |u| |X| - u^2 Q >= -s there. s bounds every trial's floor for |u| <= 1, so
    each larger size fails the grid test; the factor 2 absorbs rounding."""
    g0, x, q = grids[0] + slack, grids[1], grids[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = float((2.0 * g0 / (np.abs(x) + np.sqrt(x * x + 4.0 * q * g0))).min())
    if 0.0 < radius < 1.0:
        return 2.0 ** max(min(1 + math.ceil(math.log2(radius)), 0), -59)
    return 1.0


def _admissible(spectra, grids, u: float, tol: ToleranceConfig) -> bool:
    """True when the pencil's circle minimum at u clears -0.5 eps_residual (1 + its
    largest coefficient).

    spectra holds the half spectra of G0, X and Q, as rows, and their ``_moduli_sums``;
    grids holds their values. Sums in ``TrigPoly.lincomb``'s order. A passing grid whose
    certified floor clears the slack is a certified pass; else the TrigPoly is built and
    its refined minimum decides, an estimate (ROADMAP defect C). The grid sums three
    transforms, so the floor reads the moduli sums of |G0| + |u| |X| + u^2 |Q|, which
    bound the pencil's and its rounding's."""
    halves, sums = spectra
    half = halves[0] + (-u) * halves[1] + (-u * u) * halves[2]
    floor = -0.5 * tol.eps_residual * (1.0 + float(np.abs(half).max()))
    values = grids[0] - u * grids[1] - (u * u) * grids[2]
    if float(values.min()) < floor:
        return False
    if _grid_floor(values, len(half) - 1, (1.0, abs(u), u * u) @ sums)[0] > floor:
        return True
    return not _refine_minimum(TrigPoly.from_half_spectrum(half), values)[0] < floor  # NaN passes


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
    return _checked(replace(h1, E=combined))
