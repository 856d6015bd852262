"""Trigonometric polynomials on the circle and Fejer-Riesz factorization.

A trigonometric polynomial here is a Laurent polynomial with Hermitian
coefficient symmetry, hence real-valued on the unit circle. Nonnegative ones
factor as |D|^2 for an outer analytic polynomial D; the factorization is
computed from the root pairing of the associated ordinary polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotBalanced, NotNonnegative, OddCircleZero, ZeroPolynomial
from .polynomials import (
    Poly,
    is_n_symmetric,
    poly_from_roots,
    root_location_uncertainties,
    roots_with_multiplicity,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class TrigPoly:
    """Laurent polynomial sum_{k=-n}^{n} a_k lambda^k, real on the circle.

    ``coeffs`` lists a_{-n} .. a_n by frequency; Hermitian symmetry
    a_{-k} = conj(a_k) is required and makes circle values real.
    """

    coeffs: tuple[complex, ...]
    n: int

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.n + 1:
            raise ValueError("coefficient count must be 2n + 1")
        top = max((abs(c) for c in self.coeffs), default=0.0)
        for k in range(self.n + 1):
            lo = self.coeffs[self.n - k]
            hi = self.coeffs[self.n + k]
            if abs(lo - hi.conjugate()) > 1e-12 * (1.0 + top):
                raise ValueError("coefficients are not Hermitian-symmetric")

    @classmethod
    def from_half_spectrum(cls, half) -> "TrigPoly":
        """Build from a_0 .. a_n; negative frequencies are the conjugates."""
        half = [complex(c) for c in half]
        if not half:
            half = [0j]
        half[0] = complex(half[0].real, 0.0)
        full = [c.conjugate() for c in reversed(half[1:])] + half
        return cls(tuple(full), len(half) - 1)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.n:
            return 0j
        return self.coeffs[self.n + k]

    @property
    def max_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def value(self, t: float) -> float:
        return self._on_circle(cmath.exp(1j * t))

    def values(self, ts) -> np.ndarray:
        return self._on_circle(np.exp(1j * np.asarray(ts, dtype=float)))

    def _on_circle(self, lam):
        """lambda^{-n} P(lambda) at unimodular lam, P holding a_{-n} .. a_n.

        A scalar lam stays in Python arithmetic; numpy's per-call overhead
        would dominate the hundreds of scalar calls of circle_extrema.
        """
        return (self._analytic(lam) * lam ** -self.n).real

    @cached_property
    def _analytic(self) -> Poly:
        return Poly(self.coeffs, eps_trim=0.0)

    @classmethod
    def lincomb(cls, terms) -> "TrigPoly":
        """Real-weighted combination of trigonometric polynomials."""
        n = max((f.n for _, f in terms), default=0)
        half = [0j] * (n + 1)
        for weight, f in terms:
            for k in range(f.n + 1):
                half[k] += weight * f.coeff(k)
        return cls.from_half_spectrum(half)


def to_trig_modulus_squared(e: Poly) -> TrigPoly:
    """Autocorrelation coefficients of E: the trig polynomial |E|^2.

    a_k = sum_j e_{j+k} conj(e_j), which is Hermitian by construction.
    """
    cs = e.coeffs
    if not cs:
        return TrigPoly.from_half_spectrum([0.0])
    deg = len(cs) - 1
    half = []
    for k in range(deg + 1):
        half.append(sum(cs[j + k] * cs[j].conjugate() for j in range(deg + 1 - k)))
    return TrigPoly.from_half_spectrum(half)


def to_trig_shifted(p: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> TrigPoly:
    """Laurent coefficients of lambda^{-n} P for a 2n-symmetric P."""
    if not is_n_symmetric(p, 2 * n, tol):
        raise NotBalanced(f"polynomial is not {2 * n}-symmetric")
    padded = p.padded(2 * n + 1)
    half = []
    for k in range(n + 1):
        half.append(0.5 * (padded[n + k] + padded[n - k].conjugate()))
    return TrigPoly.from_half_spectrum(half)


def circle_extrema(f: TrigPoly, samples: int) -> tuple[float, float]:
    """Minimum of f on the circle and the angle attaining it.

    Scans a uniform grid (at least four samples per frequency) and refines
    the best bracket by ternary search.
    """
    samples = max(int(samples), 4 * max(f.n, 1), 8)
    ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = f.values(ts)
    j = int(np.argmin(vals))
    best_t = float(ts[j])
    best_v = float(vals[j])

    width = 2.0 * math.pi / samples
    lo = best_t - width
    hi = best_t + width
    for _ in range(120):
        third = (hi - lo) / 3.0
        a = lo + third
        b = hi - third
        if f.value(a) <= f.value(b):
            hi = b
        else:
            lo = a
        if hi - lo < 1e-13:
            break
    mid = 0.5 * (lo + hi)
    v_mid = f.value(mid)
    if v_mid < best_v:
        best_v, best_t = v_mid, mid
    best_t = best_t % (2.0 * math.pi)
    return best_v, best_t


def _grid_residual(values, fv):
    return float(np.max(np.abs(np.abs(values) ** 2 - fv)))


def _wilson_refine(coeffs, f: TrigPoly, degree: int, rounds: int = 4, values=None):
    """Newton refinement of a spectral factor (Wilson's method).

    Solves |D|^2 = f on the circle: with u the analytic projection of
    f / |D_k|^2 - 1 (half weight on the constant), D_{k+1} = D_k (1 + u)
    truncated to the factor degree. Quadratic convergence cleans up the
    rounding accumulated while expanding the root product. ``values``, when
    given, supplies exact circle samples of f on an angle grid (callers with
    a factored representation evaluate far more accurately than the
    coefficient form allows). Returns the coefficient array achieving the
    smaller sampled residual.
    """
    size = 1
    while size < 16 * (2 * f.n + 2):
        size *= 2
    ts = 2.0 * math.pi * np.arange(size) / size
    fv = f.values(ts) if values is None else np.asarray(values(ts), dtype=float)

    # The FFT is the Newton step's projection onto the analytic part; it also
    # gives all grid values in O(N log N), where Horner would cost O(N d).
    def values_of(cs):
        padded = np.zeros(size, dtype=complex)
        padded[: len(cs)] = cs
        return np.fft.ifft(padded) * size

    best = np.asarray(coeffs, dtype=complex)
    best_values = values_of(best)
    best_res = _grid_residual(best_values, fv)

    current = best
    current_values = best_values
    floor = 1e-300 + 1e-18 * float(np.max(np.abs(current_values)) ** 2)
    for _ in range(rounds):
        power = np.abs(current_values) ** 2
        ratio = np.where(power > floor, fv / np.maximum(power, floor) - 1.0, 0.0)
        spectrum = np.fft.fft(ratio) / size
        spectrum[0] *= 0.5
        spectrum[size // 2:] = 0.0
        correction = np.fft.ifft(spectrum) * size
        current_values = current_values * (1.0 + correction)
        current = (np.fft.fft(current_values) / size)[: degree + 1]
        current_values = values_of(current)
        res = _grid_residual(current_values, fv)
        if res < best_res:
            best, best_res = current, res
    return best


@dataclass
class _CircleCluster:
    """Circle candidates merged by angle: unimodular point and total order."""

    point: complex
    order: int
    hard: bool
    members: list


def partition_circle_roots(roots, f: Poly, tol: ToleranceConfig):
    """Split computed roots into circle clusters, inside and outside roots.

    Roots within ``eps_circle`` of the unit circle are hard circle
    candidates; roots within their estimated location uncertainty of the
    circle are soft candidates. Candidates are merged angularly and a merged
    cluster counts as a genuine circle zero only when its total order is
    even, the structural property of squared moduli and royal polynomials.
    An odd cluster with a hard member raises ``OddCircleZero``; an odd soft
    cluster falls back to its members' radial sides.

    Returns (circle, inside, outside) where circle holds (point, order)
    pairs with unimodular points and order the full (even) zero order.
    """
    uncertainties = root_location_uncertainties(f, roots, eps_coeff=tol.eps_trim)
    candidates = []
    inside = []
    outside = []
    for (z, m), err in zip(roots, uncertainties):
        radius = abs(z)
        gap = abs(radius - 1.0)
        wide = max(tol.eps_circle, min(8.0 * err, 1e-4))
        if radius == 0.0:
            inside.append((z, m))
        elif gap <= wide:
            candidates.append((z / radius, m, z, gap <= tol.eps_circle))
        elif radius > 1.0:
            outside.append((z, m))
        else:
            inside.append((z, m))

    clusters = []
    for snapped, m, original, hard in sorted(
        candidates, key=lambda it: (it[0].real, it[0].imag)
    ):
        for group in clusters:
            radius = min(tol.eps_root ** (1.0 / (m + group.order)), 1e-2)
            if abs(snapped - group.point) <= radius:
                weighted = group.point * group.order + snapped * m
                group.point = weighted / abs(weighted)
                group.order += m
                group.hard = group.hard or hard
                group.members.append((original, m))
                break
        else:
            clusters.append(_CircleCluster(snapped, m, hard, [(original, m)]))

    circle = []
    for group in clusters:
        if group.order % 2 == 0:
            circle.append((group.point, group.order))
        elif group.hard:
            raise OddCircleZero(
                f"circle zero at {group.point:.6g} has odd order {group.order}"
            )
        else:
            for original, m in group.members:
                if abs(original) > 1.0:
                    outside.append((original, m))
                else:
                    inside.append((original, m))
    return circle, inside, outside


def fejer_riesz(
    f: TrigPoly, tol: ToleranceConfig = DEFAULT_TOL, value_fn=None
) -> Poly:
    """Outer spectral factor D of a nonnegative trigonometric polynomial.

    Returns D with no roots inside the unit disc, |D|^2 = f on the circle and
    the canonical normalization D(0) real and strictly positive. The factor
    is built by pairing the roots of lambda^n f(lambda): each pair (zeta,
    1/conj(zeta)) contributes its outside member, and circle zero clusters
    (necessarily of even order) contribute half their multiplicity. A Newton
    cleanup pass then removes the expansion rounding; ``value_fn`` may
    supply exact circle samples of f (angles -> values) for callers that
    know f in a well-conditioned factored form.

    Raises ``NotNonnegative`` when the circle minimum is below -eps_residual
    (relative), and ``OddCircleZero`` when a circle zero cluster has odd
    order, which is inconsistent with a squared modulus. ``circle_extrema``
    estimates that minimum by a grid scan plus local refinement, not a
    certified bound (ROADMAP defect C).
    """
    scale = f.max_coeff
    if scale == 0.0:
        raise ZeroPolynomial("cannot factor the zero trigonometric polynomial")

    half = [f.coeff(k) / scale for k in range(f.n + 1)]
    top = len(half) - 1
    while top > 0 and abs(half[top]) <= tol.eps_trim:
        top -= 1
    g = TrigPoly.from_half_spectrum(half[: top + 1])

    min_val, _ = circle_extrema(g, tol.circle_samples)
    if min_val < -tol.eps_residual:
        raise NotNonnegative(f"scaled circle minimum {min_val:.3e} is negative")

    if top == 0:
        level = max(g.coeff(0).real, 0.0) * scale
        return Poly([math.sqrt(level)])

    analytic = Poly([g.coeff(k - top) for k in range(2 * top + 1)])
    roots = roots_with_multiplicity(analytic, tol)
    on_circle, _, outside = partition_circle_roots(roots, analytic, tol)

    selected = outside + [(z, m // 2) for z, m in on_circle]
    lead = g.coeff(top)
    gain = abs(lead)
    for z, m in outside:
        gain /= abs(z) ** m

    factor = poly_from_roots(selected, math.sqrt(gain))

    if not on_circle:
        # Newton cleanup of the expansion rounding; skipped when the factor
        # carries exact circle zeros, which refinement would split.
        scaled_values = None
        if value_fn is not None:

            def scaled_values(ts):
                return np.asarray(value_fn(ts), dtype=float) / scale

        refined = _wilson_refine(factor.padded(top + 1), g, top, values=scaled_values)
        factor = Poly(refined)

    factor = math.sqrt(scale) * factor
    at_zero = factor(0j)
    phase = at_zero / abs(at_zero)
    return factor * phase.conjugate()
