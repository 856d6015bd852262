"""Trigonometric polynomials on the circle and Fejer-Riesz factorization.

A trigonometric polynomial here is a Laurent polynomial with Hermitian
coefficient symmetry, hence real-valued on the unit circle. Nonnegative ones
factor as |D|^2 for an outer analytic polynomial D: strictly positive ones by
Newton on D's coefficients from a cepstral start, checked by the Schur-Cohn
recursion, the rest by pairing the roots of the associated polynomial.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GammaKitError, NotBalanced, NotNonnegative, ZeroPolynomial
from .polynomials import (
    _EPS,
    Poly,
    _check_finite,
    _horner,
    _normalized,
    _roots,
    _schur_cohn_outer,
    is_n_symmetric,
    partition_circle_roots,
    poly_from_roots,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

_ROOT_FREE_DEPTH = 1e-7  # relative circle minimum above which fejer_riesz solves no roots


@dataclass(frozen=True)
class TrigPoly:
    """Laurent polynomial sum_{k=-n}^{n} a_k lambda^k, real on the circle.

    ``coeffs`` lists a_{-n} .. a_n by frequency; Hermitian symmetry
    a_{-k} = conj(a_k) is required and makes circle values real. An
    infinite or NaN coefficient raises :class:`BadParameter`.
    """

    coeffs: tuple[complex, ...]
    n: int

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.n + 1:
            raise ValueError("coefficient count must be 2n + 1")
        mags = list(map(abs, self.coeffs))
        _check_finite(mags, "trigonometric polynomial")
        top = max(mags, default=0.0)
        for k in range(self.n + 1):
            lo = self.coeffs[self.n - k]
            hi = self.coeffs[self.n + k]
            if abs(lo - hi.conjugate()) > 1e-12 * (1.0 + top):
                raise ValueError("coefficients are not Hermitian-symmetric")

    @classmethod
    def from_half_spectrum(cls, half) -> "TrigPoly":
        """Build from a_0 .. a_n; negative frequencies are the conjugates.

        Hermitian by construction, so only finiteness is checked, not symmetry."""
        half = list(map(complex, half)) or [0j]
        half[0] = complex(half[0].real, 0.0)
        _check_finite(list(map(abs, half)), "trigonometric polynomial")
        full = list(map(complex.conjugate, reversed(half[1:]))) + half
        out = object.__new__(cls)
        out.__dict__.update(coeffs=tuple(full), n=len(half) - 1)
        return out

    def coeff(self, k: int) -> complex:
        if abs(k) > self.n:
            return 0j
        return self.coeffs[self.n + k]

    @property
    def max_coeff(self) -> float:
        return max(map(abs, self.coeffs), default=0.0)

    def value(self, t: float) -> float:
        return self._on_circle(cmath.exp(1j * t))

    def values(self, ts) -> np.ndarray:
        return self._on_circle(np.exp(1j * np.asarray(ts, dtype=float)))

    def _on_circle(self, lam):
        """f at unimodular lam: a float, or a float array shaped like lam.

        ``polynomials._horner`` on the first of ``_angle_derivatives``. A
        scalar lam stays in Python arithmetic, where numpy's per-call
        overhead would dominate one Horner pass. Uniform grids go through
        ``_grid_values`` instead.
        """
        return _horner(self._angle_derivatives[0], lam).real

    @cached_property
    def _angle_derivatives(self) -> tuple[list, list, list]:
        """Coefficient lists whose polynomials' real parts at e^{it} are f, f' and f''.

        Hermitian symmetry gives f(t) = Re(a_0 + 2 sum_{k>=1} a_k e^{ikt}),
        and each t-derivative multiplies a_k by ik. Each list is normalized
        as ``Poly(..., eps_trim=0.0)`` normalizes: exact trailing zeros go.
        """
        half = [self.coeffs[self.n]] + [2.0 * c for c in self.coeffs[self.n + 1 :]]
        return (
            _normalized(half, 0.0),
            _normalized([1j * k * c for k, c in enumerate(half)], 0.0),
            _normalized([-k * k * c for k, c in enumerate(half)], 0.0),
        )

    @classmethod
    def lincomb(cls, terms) -> "TrigPoly":
        """Real-weighted combination of trigonometric polynomials."""
        terms = list(terms)  # read once: a zip or generator would be empty the second time
        n = max((f.n for _, f in terms), default=0)
        half = [0j] * (n + 1)
        for weight, f in terms:
            half[: f.n + 1] = map(operator.add, half, [weight * c for c in f.coeffs[f.n :]])
        return cls.from_half_spectrum(half)


def to_trig_modulus_squared(e: Poly) -> TrigPoly:
    """Autocorrelation coefficients of E: the trig polynomial |E|^2.

    a_k = sum_j e_{j+k} conj(e_j), which is Hermitian by construction.
    """
    return TrigPoly.from_half_spectrum(_correlation(e.coeffs, e.coeffs))


def _correlation(a, b) -> list[complex]:
    """Half spectrum of a conj(b) on the circle, from coefficient sequences.

    c_k = sum_j a_{j+k} conj(b_j) for k = 0 .. len(a) - 1. With a = b it is
    the autocorrelation; with a != b the negative frequencies are those of
    the swapped pair, c_{-k} = conj(sum_j b_{j+k} conj(a_j)).
    """
    conj_b = [c.conjugate() for c in b]
    return [sum(map(operator.mul, a[k:], conj_b)) for k in range(len(a))]


def to_trig_shifted(p: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> TrigPoly:
    """Laurent coefficients of lambda^{-n} P for a 2n-symmetric P."""
    if not is_n_symmetric(p, 2 * n, tol):
        raise NotBalanced(f"polynomial is not {2 * n}-symmetric")
    padded = p.padded(2 * n + 1)
    half = []
    for k in range(n + 1):
        half.append(0.5 * (padded[n + k] + padded[n - k].conjugate()))
    return TrigPoly.from_half_spectrum(half)


def _grid_values(halves, size: int) -> np.ndarray:
    """Values at the angles 2 pi m / size, m = 0 .. size - 1, from one real inverse FFT.

    halves is one half spectrum a_0 .. a_n, as ``_on_circle`` reads it, or rows of them.
    The grid carries no aliasing once size >= 2n + 1, so the values are exact up to rounding.
    """
    return np.fft.irfft(halves, size, norm="forward")


def _extrema_grid_size(n: int, samples: int) -> int:
    """Size of ``circle_extrema``'s grid for a degree-n trigonometric polynomial."""
    return max(int(samples), 4 * max(n, 1), 8)


def circle_extrema(f: TrigPoly, samples: int) -> tuple[float, float]:
    """Minimum of f on the circle and the angle attaining it.

    Takes f on a uniform grid (at least four samples per frequency) from one
    inverse FFT and refines its lowest point with ``_refine_minimum``. It
    estimates the minimum; it does not certify it (ROADMAP defect C).
    Returns the smallest value seen, grid point or iterate, and its angle
    mod 2 pi.
    """
    return _refine_minimum(f, _grid_values(f.coeffs[f.n :], _extrema_grid_size(f.n, samples)))


def _refine_minimum(f: TrigPoly, grid_values) -> tuple[float, float]:
    """Refine the lowest of f's values at the angles 2 pi m / len(grid_values).

    Safeguarded Newton on f' inside [t_j - h, t_j + h], t_j the best grid
    point and h the grid step: where f'' <= 0 or a step would leave the
    bracket, it bisects instead. The refinement stops when a step is below
    1e-13 or |f'| is at its rounding floor 8 eps sum |k a_k|. Returns the
    smallest value seen, grid point or iterate, and its angle mod 2 pi.
    """
    j = int(grid_values.argmin())
    width = 2.0 * math.pi / len(grid_values)
    best_t = j * width
    best_v = float(grid_values[j])

    value, slope, curve = f._angle_derivatives
    floor = 8.0 * _EPS * sum(map(abs, slope))
    lo = best_t - width
    hi = best_t + width
    t = best_t
    # Bisection alone narrows 2h below 1e-13 in fewer than 64 steps.
    for _ in range(64):
        z = cmath.exp(1j * t)
        v = _horner(value, z).real
        if v < best_v:
            best_v, best_t = v, t
        d1 = _horner(slope, z).real
        if abs(d1) <= floor:
            break
        if d1 > 0.0:
            hi = t
        else:
            lo = t
        d2 = _horner(curve, z).real
        nxt = 0.5 * (lo + hi)
        if d2 > 0.0 and lo < t - d1 / d2 < hi:
            nxt = t - d1 / d2
        if abs(nxt - t) < 1e-13:
            break
        t = nxt
    return best_v, best_t % (2.0 * math.pi)


def _cepstral_factor(f: TrigPoly, degree: int, size: int) -> np.ndarray:
    """Newton's start d_0 .. d_degree: exp of the analytic half of log f on ``size`` angles.

    D(0) > 0, but the series aliases: on too small a grid D need not even be outer. f's
    values take a complex transform, not ``_grid_values``' real one: D's bits depend on it.
    """
    spectrum = np.zeros(size, dtype=complex)
    spectrum[: f.n + 1] = f.coeffs[f.n :]
    spectrum[size - f.n :] = f.coeffs[: f.n]  # negative frequencies wrap to the end
    values = np.maximum(np.fft.ifft(spectrum, norm="forward").real, 1e-300)  # f may dip below 0
    cepstrum = np.fft.fft(np.log(values)) / size
    cepstrum[0] *= 0.5
    cepstrum[size // 2 :] = 0.0
    outer = np.exp(np.fft.ifft(cepstrum) * size)
    return np.fft.fft(outer)[: degree + 1] / size


@functools.lru_cache(maxsize=64)
def _newton_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather indices of ``_newton_factor``'s matrices at degree n, into
    [d_0 .. d_n, 0, conj d_0 .. conj d_n]: (r, c) picks conj d_{c-r} (c >= r) in the
    first and d_{c+r} (c + r <= n) in the second, else the zero at n + 1."""
    rows, cols = np.indices((n + 1, n + 1))
    lag = np.where(cols >= rows, n + 2 + cols - rows, n + 1)
    total = np.where(cols + rows <= n, cols + rows, n + 1)
    lag.flags.writeable = total.flags.writeable = False
    return lag, total


def _newton_factor(d, half) -> tuple[np.ndarray, float]:
    """Newton on |D|^2 = f in coefficient form (Wilson 1969) from the complex array d.

    A step solves conj(D) delta + D conj(delta) = f - |D|^2 on the half
    spectrum a_0 .. a_n for 2n + 2 real unknowns, with Im delta_0 = 0 fixing
    the phase. At most ten steps, up to the first that does not lower the
    residual max_k |a_k - (|D|^2)_k|. Returns the best coefficients and residual.
    The gather indices come from ``_newton_plan``, cached per degree (the last 64
    degrees used); they place the same operands, so D keeps its bits.
    """
    n = len(d) - 1
    lag, total = _newton_plan(n)
    pad = np.zeros(2 * n + 3, dtype=complex)
    jac, rhs = np.empty((2 * n + 2, 2 * n + 2)), np.empty(2 * n + 2)  # of (Re delta, Im delta)
    best, best_res = d, math.inf
    for _ in range(11):
        pad[: n + 1] = d
        np.conjugate(d, out=pad[n + 2 :])
        lagged = pad.take(lag)  # lagged @ d: the half spectrum of |D|^2
        gap = half - lagged @ d
        res = float(np.abs(gap).max())
        if not res < best_res:
            break
        best, best_res = d, res
        mirrored = pad.take(total)
        same, turned = lagged + mirrored, 1j * (lagged - mirrored)
        jac[: n + 1, : n + 1], jac[: n + 1, n + 1 :] = same.real, turned.real
        jac[n + 1 :, : n + 1], jac[n + 1 :, n + 1 :] = same.imag, turned.imag
        rhs[: n + 1], rhs[n + 1 :] = gap.real, gap.imag
        jac[n + 1, n + 1], rhs[n + 1] = 1.0, 0.0  # row n + 1 (Im a_0) is identically zero
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        d = d + delta[: n + 1] + 1j * delta[n + 1 :]
    return best, best_res


def fejer_riesz(f: TrigPoly, tol: ToleranceConfig = DEFAULT_TOL) -> Poly:
    """Outer spectral factor D of a nonnegative trigonometric polynomial.

    Returns D with no roots inside the unit disc, |D|^2 = f on the circle and
    D(0) > 0; deg D is f's top frequency with a nonzero coefficient, however
    small. If f's relative circle minimum exceeds ``_ROOT_FREE_DEPTH``, D is
    ``_newton_factor`` from the cepstral start on a power-of-two grid of at
    least 16 (2n + 2) angles, if its residual is at most 64 eps (n + 1) and
    Schur-Cohn finds no zero in the closed disc; the grid doubles up to three
    times. Otherwise D takes the outside root of each pair (zeta,
    1/conj(zeta)) of lambda^n f and half of each circle zero cluster, and the
    same Newton removes the expansion rounding unless D has circle zeros.

    Raises ``NotNonnegative`` when the circle minimum (an estimate, not a
    certified bound: ROADMAP defect C) is below -eps_residual (relative),
    ``OddCircleZero`` for a circle zero cluster of odd order, impossible for
    a squared modulus, and ``GammaKitError`` naming the symbol depth when the
    selected roots do not number the factor degree. Newton's plans are cached per
    degree, with a bound; the cache does not change D.
    """
    scale = f.max_coeff
    if scale == 0.0:
        raise ZeroPolynomial("cannot factor the zero trigonometric polynomial")

    half = [c / scale for c in f.coeffs[f.n :]]
    top = len(half) - 1
    while top > 0 and half[top] == 0:
        top -= 1
    g = TrigPoly.from_half_spectrum(half[: top + 1])

    min_val, _ = circle_extrema(g, tol.circle_samples)
    if min_val < -tol.eps_residual:
        raise NotNonnegative(f"scaled circle minimum {min_val:.3e} is negative")

    target = np.array(g.coeffs[top:])
    size = 1 << (16 * (2 * top + 2) - 1).bit_length()  # a power of two >= 16 (2n + 2)
    for _ in range(4 if min_val > _ROOT_FREE_DEPTH else 0):
        d, res = _newton_factor(_cepstral_factor(g, top, size), target)
        if res <= 64.0 * _EPS * (top + 1) and _schur_cohn_outer(d.tolist()):
            break
        size *= 2
    else:  # no root-free factor accepted, or none tried
        analytic = Poly(g.coeffs)
        roots = _roots(analytic, tol, keep="outside")
        on_circle, _, outside = partition_circle_roots(roots, analytic, tol)
        selected = outside + [(z, m // 2) for z, m in on_circle]
        count = sum(m for _, m in selected)
        if count != top:
            raise GammaKitError(
                f"root pairing selected {count} roots for a factor of degree {top}"
                f" (symbol depth {min_val:.1e})"
            )
        gain = abs(g.coeff(top))
        for z, m in outside:
            gain /= abs(z) ** m
        d = np.array(poly_from_roots(selected, math.sqrt(gain)).padded(top + 1))
        if not on_circle:
            d = _newton_factor(d, target)[0]

    factor = _normalized(d.tolist())
    factor = _normalized([complex(math.sqrt(scale)) * c for c in factor])
    at_zero = _horner(factor, 0j)
    turn = (at_zero / abs(at_zero)).conjugate()
    return Poly([turn * c for c in factor])
