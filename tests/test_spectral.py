import cmath
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gammakit import (
    DEFAULT_TOL,
    BadParameter,
    GammaKitError,
    NotBalanced,
    NotNonnegative,
    OddCircleZero,
    Poly,
    TrigPoly,
    ZeroPolynomial,
    circle_extrema,
    fejer_riesz,
    h_nu,
    l_factor,
    poly_from_roots,
    q_factor,
    roots_with_multiplicity,
    to_trig_modulus_squared,
    to_trig_shifted,
)
import gammakit.polynomials
from gammakit.inner import circle_gap
from gammakit.spectral import _correlation, _grid_values, partition_circle_roots
from gammakit.synthesis import build_re

from helpers import BITWISE, COEFFS, count_calls, random_poly, random_spec, same_bits


def test_modulus_squared_examples():
    f = to_trig_modulus_squared(Poly([1, 1]))
    assert f.coeff(0) == 2 and f.coeff(1) == 1 and f.coeff(-1) == 1

    t = 0.7
    f = to_trig_modulus_squared(Poly([-1j * t, 1j * t]))
    assert f.coeff(0) == pytest.approx(2 * t * t)
    assert f.coeff(1) == pytest.approx(-t * t)


def test_modulus_squared_matches_samples():
    rng = random.Random(4)
    e = random_poly(rng, 6)
    f = to_trig_modulus_squared(e)
    for t in np.linspace(0, 2 * math.pi, 37):
        lam = complex(math.cos(t), math.sin(t))
        assert f.value(t) == pytest.approx(abs(e(lam)) ** 2, rel=1e-10, abs=1e-10)
        # value and values share one Horner body; numpy's complex product may
        # round differently from Python's, hence a few ulps of slack.
        assert abs(f.value(t) - f.values([t])[0]) <= 1e-14 * sum(abs(c) for c in f.coeffs)


def test_shifted_example_and_guard():
    f = to_trig_shifted(Poly([1, 2, 1]), 1)
    assert f.coeff(-1) == 1 and f.coeff(0) == 2 and f.coeff(1) == 1
    with pytest.raises(NotBalanced):
        to_trig_shifted(Poly([1, 2]), 1)


def test_circle_extrema():
    assert circle_extrema(TrigPoly.from_half_spectrum([1]), 256)[0] == pytest.approx(1.0)

    min_v, arg = circle_extrema(TrigPoly.from_half_spectrum([2, 1]), 1024)
    assert min_v == pytest.approx(0.0, abs=1e-12)
    assert arg == pytest.approx(math.pi, abs=1e-5)

    min_v, arg = circle_extrema(TrigPoly.from_half_spectrum([5, 2]), 1024)
    assert min_v == pytest.approx(1.0, abs=1e-10)
    assert arg == pytest.approx(math.pi, abs=1e-4)


def _oracle_minimum(f: TrigPoly) -> float:
    """Minimum of f on the circle to 50 digits.

    A dense float grid locates every local minimum that can be the lowest;
    ``findroot`` then solves f' = 0 from each in 50-digit arithmetic, and
    the lowest 50-digit value of f at a grid point or root is the oracle.
    """
    mpmath = pytest.importorskip("mpmath")
    size = 64 * (2 * f.n + 1)
    step = 2 * math.pi / size
    grid = f.values(step * np.arange(size))
    # A grid minimum lies within max|f''| h^2 / 2 of the true minimum.
    reach = sum(k * k * abs(f.coeff(k)) for k in range(-f.n, f.n + 1)) * step**2
    lowest = float(grid.min())
    starts = [
        j * step
        for j in range(size)
        if grid[j] <= grid[j - 1] and grid[j] <= grid[(j + 1) % size] and grid[j] <= lowest + reach
    ]
    with mpmath.workdps(50):
        weights = [mpmath.mpc(f.coeff(0).real)] + [
            2 * mpmath.mpc(f.coeff(k).real, f.coeff(k).imag) for k in range(1, f.n + 1)
        ]

        def derivative(t, order):
            return mpmath.re(
                sum(w * (1j * k) ** order * mpmath.expj(k * t) for k, w in enumerate(weights))
            )

        best = min(derivative(mpmath.mpf(t), 0) for t in starts)
        for t in starts:
            root = mpmath.findroot(
                lambda u: derivative(u, 1),
                mpmath.mpf(t),
                solver="newton",
                df=lambda u: derivative(u, 2),
                verify=False,
            )
            best = min(best, derivative(root, 0))
        return float(best)


def _gaussian_trig(rng: random.Random, n: int) -> TrigPoly:
    return TrigPoly.from_half_spectrum(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
    )


_BETWEEN_GRID = math.cos(2 * math.pi * 100.5 / 1024) + 1j * math.sin(2 * math.pi * 100.5 / 1024)

ORACLE_CASES = {
    **{
        f"random-degree-{n}": _gaussian_trig(random.Random(1000 + n), n)
        for n in (1, 2, 3, 5, 8, 13, 21, 32)
    },
    # (1 - cos t)^2: an order-4 zero at t = 0, flat to rounding over ~1e-4.
    "order-4-zero": TrigPoly.from_half_spectrum([1.5, -1.0, 0.25]),
    # 4 + 4 cos 5t: five tied double zeros.
    "tied-h_nu": circle_gap(h_nu(2, 0.5).E, h_nu(2, 0.5).D),
    # |lambda - 0.9 e^{i theta}|^2 = 1.81 - 1.8 cos(t - theta): its minimum
    # 0.01 sits at theta, half a grid step from two grid points.
    "between-grid": to_trig_modulus_squared(Poly([-0.9 * _BETWEEN_GRID, 1.0])),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_circle_extrema_against_oracle(name):
    f = ORACLE_CASES[name]
    samples = 1024
    value, angle = circle_extrema(f, samples)
    scale = sum(abs(c) for c in f.coeffs)
    assert abs(value - _oracle_minimum(f)) <= 1e-12 * scale
    assert value <= float(f.values(2 * math.pi * np.arange(samples) / samples).min())
    assert 0.0 <= angle < 2 * math.pi
    assert abs(f.value(angle) - value) <= 1e-14 * scale


def test_circle_extrema_newton_stops_at_convergence(monkeypatch):
    rng = random.Random(10)
    f = circle_gap(random_poly(rng, 10), random_poly(rng, 10))
    calls = count_calls(monkeypatch, "_horner", gammakit.polynomials._horner)
    _, angle = circle_extrema(f, 1024)
    monkeypatch.undo()
    angles = {z for _, z in calls if not isinstance(z, np.ndarray)}
    assert angles
    # The minimum is nondegenerate, so Newton converges quadratically.
    curvature = -sum(
        k * k * f.coeff(k) * complex(math.cos(k * angle), math.sin(k * angle))
        for k in range(-f.n, f.n + 1)
    ).real
    assert curvature > 1e-3 * sum(abs(c) for c in f.coeffs)
    assert len(angles) <= 10


def test_fejer_riesz_examples():
    assert fejer_riesz(TrigPoly.from_half_spectrum([1])).coeffs == (1,)

    d = fejer_riesz(TrigPoly.from_half_spectrum([2, 1]))
    assert max(abs(a - b) for a, b in zip(d.coeffs, (1, 1))) < 1e-9

    d = fejer_riesz(TrigPoly.from_half_spectrum([5, 2]))
    assert max(abs(a - b) for a, b in zip(d.coeffs, (2, 1))) < 1e-9


def test_fejer_riesz_rejects_signed_input():
    with pytest.raises(NotNonnegative):
        fejer_riesz(TrigPoly.from_half_spectrum([1, 2]))  # 1 + 4 cos t
    with pytest.raises(ZeroPolynomial):
        fejer_riesz(TrigPoly.from_half_spectrum([0]))


def _factor_residual(d, f, samples=1024):
    worst = 0.0
    for j in range(samples):
        t = 2 * math.pi * j / samples
        lam = complex(math.cos(t), math.sin(t))
        worst = max(worst, abs(abs(d(lam)) ** 2 - f.value(t)))
    return worst


def test_fejer_riesz_round_trip_property():
    rng = random.Random(99)
    for _ in range(25):
        e = random_poly(rng, rng.randint(1, 10))
        f = to_trig_modulus_squared(e)
        d = fejer_riesz(f)
        # same modulus on the circle as the generator
        for j in range(64):
            t = 2 * math.pi * j / 64
            lam = complex(math.cos(t), math.sin(t))
            assert abs(d(lam)) == pytest.approx(abs(e(lam)), rel=1e-8, abs=1e-9)
        assert _factor_residual(d, f) <= 1e-9 * (1 + max(abs(c) for c in f.coeffs))
        # outer and canonically normalized
        assert d(0).real > 0 and abs(d(0).imag) < 1e-12 * d(0).real
        if d.degree > 0:
            assert all(abs(z) >= 1 - 1e-10 for z, _ in roots_with_multiplicity(d))


def test_fejer_riesz_double_circle_zero(monkeypatch):
    # |(lambda - 1)|^2 style input: zero of order 2 at 1 on the circle
    e = Poly([-1, 1]) * Poly([0.5, 1])
    f = to_trig_modulus_squared(e)
    solves = count_calls(monkeypatch, "_roots", gammakit.polynomials._roots)
    d = fejer_riesz(f)
    monkeypatch.undo()
    assert len(solves) == 1  # the root pairing; the symbol has no positive depth
    assert d.degree == 2
    roots = dict((round(abs(z), 6), m) for z, m in roots_with_multiplicity(d))
    assert roots.get(1.0) == 1
    assert _factor_residual(d, f) < 1e-9 * (1 + max(abs(c) for c in f.coeffs))


def test_fejer_riesz_strictly_positive_symbol_solves_no_roots(monkeypatch):
    f = to_trig_modulus_squared(random_poly(random.Random(1), 7))
    assert circle_extrema(f, 1024)[0] > 1e-4 * f.max_coeff  # far above the root-free depth
    solves = count_calls(monkeypatch, "_roots", gammakit.polynomials._roots)
    d = fejer_riesz(f)
    monkeypatch.undo()
    assert not solves
    assert _factor_residual(d, f) <= 1e-12 * (1 + f.max_coeff)


def test_fejer_riesz_circle_zero_above_the_estimated_depth():
    # The double zero at tau lies between circle_extrema's grid points, below a
    # shallower minimum near -1.001, so the depth reads 4.5e-6 (defect C). The
    # doubled cepstral grids land on tau, where f rounds to -1e-16.
    tau = cmath.exp(2j * math.pi / 2048)
    f = to_trig_modulus_squared(poly_from_roots([(tau, 1), (-1.001, 1), (1.5j, 1), (-2j, 1)]))
    assert circle_extrema(f, 1024)[0] > 1e-6 * f.max_coeff
    d = fejer_riesz(f)
    assert _factor_residual(d, f) <= 1e-9 * (1 + f.max_coeff)
    assert min(abs(z) for z, _ in roots_with_multiplicity(d)) >= 1.0 - 1e-10


def _gaussian_symbols(seed: int, degree: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        e = Poly([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1)])
        yield to_trig_modulus_squared(e)


@pytest.mark.parametrize("degree, seed", [(48, 4848), (64, 4864)])
def test_fejer_riesz_high_degree_gaussian_symbols(degree, seed):
    # Root pairing plus the old FFT cleanup failed 2 of the 30 at degree 48 and
    # 27 of the 30 at degree 64 (relative residuals up to 0.2).
    for f in _gaussian_symbols(seed, degree, 30):
        d = fejer_riesz(f)
        count = max(256, 4 * f.n)
        lam = np.exp(2j * np.pi * np.arange(count) / count)
        a = np.asarray(f.coeffs)
        f_vals = (np.polyval(a[::-1], lam) * lam ** (-f.n)).real
        d_vals = np.polyval(np.asarray(d.coeffs)[::-1], lam)
        residual = np.max(np.abs(np.abs(d_vals) ** 2 - f_vals)) / np.max(np.abs(a))
        assert residual <= 1e-9
        assert np.min(np.abs(np.roots(np.asarray(d.coeffs)[::-1]))) >= 1.0 - 1e-10
        assert d.coeffs[0].real > 0.0 and abs(d.coeffs[0].imag) <= 1e-12 * d.coeffs[0].real


def test_fejer_riesz_rejects_wrong_root_count():
    # A symbol of depth 3e-11 whose root pairing selects one root too many.
    rng = random.Random(17)
    for _ in range(6):
        spec = random_spec(rng, n_max=10)
    r, e = build_re(dataclasses.replace(spec, t_plus=spec.t * spec.t / 1e4))
    f = to_trig_shifted(r + e * e, spec.n)
    with pytest.raises(GammaKitError, match="selected 10 roots .* degree 9") as caught:
        fejer_riesz(f)
    assert caught.type is GammaKitError
    assert str(caught.value).endswith("(symbol depth 1.2e-10)")  # circle minimum / max coefficient


def test_fejer_riesz_deterministic():
    rng = random.Random(1)
    e = random_poly(rng, 7)
    f = to_trig_modulus_squared(e)
    assert fejer_riesz(f).coeffs == fejer_riesz(f).coeffs


def test_fejer_riesz_unique_up_to_rotation():
    # any valid factor has the same coefficient moduli as the canonical one
    rng = random.Random(55)
    e = random_poly(rng, 5)
    f = to_trig_modulus_squared(e)
    d = fejer_riesz(f)
    rotated = to_trig_modulus_squared(complex(math.cos(1.0), math.sin(1.0)) * d)
    d2 = fejer_riesz(rotated)
    assert max(abs(abs(a) - abs(b)) for a, b in zip(d.padded(6), d2.padded(6))) < 1e-9


def test_partition_merges_close_circle_roots_by_angle():
    # Two simple unit roots 2e-6 rad apart lie within the merge radius eps_root^(1/2).
    near = [(cmath.exp(1j * 1.0), 1), (cmath.exp(1j * (1.0 + 2e-6)), 1)]
    roots = near + [(0.5, 1), (2.0, 1)]
    circle, inside, outside = partition_circle_roots(roots, poly_from_roots(roots), DEFAULT_TOL)
    assert len(circle) == 1 and circle[0][1] == 2
    assert abs(circle[0][0] - cmath.exp(1j * (1.0 + 1e-6))) < 1e-12
    assert inside == [(0.5, 1)] and outside == [(2.0, 1)]


def test_partition_raises_on_odd_hard_circle_zero():
    with pytest.raises(OddCircleZero, match="odd order 1"):
        partition_circle_roots([(1.0, 1)], Poly([-1, 1]), DEFAULT_TOL)


@pytest.mark.parametrize("root, side", [(1 + 5e-8, 2), (1 - 5e-8, 1)])
def test_partition_odd_soft_circle_zero_keeps_its_radial_side(root, side):
    # Off the eps_circle annulus but within the location uncertainty of a triple root.
    parts = partition_circle_roots([(root, 1)], poly_from_roots([(1.0, 3)]), DEFAULT_TOL)
    assert parts[0] == [] and parts[side] == [(root, 1)] and parts[3 - side] == []


def test_trig_poly_rejects_non_hermitian():
    with pytest.raises(ValueError):
        TrigPoly((1j, 2.0, 1j), 1)
    with pytest.raises(ValueError):
        TrigPoly((1.0, 2.0), 1)


@pytest.mark.parametrize(
    "coeffs, n",
    [((math.nan,), 0), ((math.inf,), 0), ((complex(0, -math.inf), 1.0, complex(0, math.inf)), 1)],
)
def test_trig_poly_rejects_non_finite(coeffs, n):
    with pytest.raises(BadParameter, match="must be finite"):
        TrigPoly(coeffs, n)


def test_trig_poly_accepts_large_finite_coefficients():
    f = TrigPoly.from_half_spectrum([1e308, 1e308])  # the modulus sum overflows
    assert f.coeffs == (1e308, 1e308, 1e308)


def test_lincomb_reads_one_shot_iterables():
    rng = random.Random(3)
    fs = [to_trig_modulus_squared(random_poly(rng, k)) for k in (2, 5, 3)]
    weights = [0.5, -1.25, 2.0]
    assert TrigPoly.lincomb(zip(weights, fs)) == TrigPoly.lincomb(list(zip(weights, fs)))
    assert TrigPoly.lincomb(zip(weights, fs)).max_coeff > 0.0


def test_zero_trig_polynomial_values_at_array_points():
    values = TrigPoly.from_half_spectrum([0]).values([0.0, 1.0])
    assert isinstance(values, np.ndarray) and values.dtype == float and values.shape == (2,)
    assert not values.any()
    assert TrigPoly.from_half_spectrum([0]).value(1.0) == 0.0


# -- bit-for-bit properties of the coefficient-list hot paths ------------------------



@BITWISE
@given(st.lists(COEFFS, max_size=7))
def test_from_half_spectrum_passes_the_validating_constructor(half):
    f = TrigPoly.from_half_spectrum(half)
    expected = [complex(c) for c in half] or [0j]
    expected[0] = complex(expected[0].real, 0.0)
    assert same_bits(f.coeffs, [c.conjugate() for c in reversed(expected[1:])] + expected)
    checked = TrigPoly(f.coeffs, f.n)  # raises on a list that is not Hermitian
    assert checked == f and same_bits(checked.coeffs, f.coeffs)
    doubled = [expected[0]] + [2.0 * c for c in expected[1:]]
    rungs = (
        Poly(doubled, eps_trim=0.0),
        Poly([1j * k * c for k, c in enumerate(doubled)], eps_trim=0.0),
        Poly([-k * k * c for k, c in enumerate(doubled)], eps_trim=0.0),
    )
    for found, rung in zip(f._angle_derivatives, rungs):
        assert same_bits(found, rung.coeffs)


@BITWISE
@given(st.lists(COEFFS, max_size=7), st.lists(COEFFS, max_size=7))
def test_correlation_matches_the_generator_formula(a, b):
    expected = [
        sum(a[j + k] * b[j].conjugate() for j in range(min(len(b), len(a) - k)))
        for k in range(len(a))
    ]
    assert same_bits(_correlation(a, b), expected)


@BITWISE
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3, 1e-5]))
def test_build_re_matches_poly_products(seed, shrink):
    # Shrunken nodes and zeros make the products' top coefficients trimmable.
    spec = random_spec(random.Random(seed))
    spec = dataclasses.replace(
        spec,
        sigmas=tuple(shrink * s for s in spec.sigmas),
        alphas=tuple(shrink * a for a in spec.alphas),
    )
    r = Poly([spec.t_plus])
    for sig in spec.sigmas:
        r = r * q_factor(sig, spec.tol)
    e = Poly([spec.t])
    for alpha in spec.alphas:
        e = e * q_factor(alpha, spec.tol)
    for tau in spec.taus:
        e = e * l_factor(tau, spec.tol)
    found_r, found_e = build_re(spec)
    assert same_bits(found_r.coeffs, r.coeffs) and same_bits(found_e.coeffs, e.coeffs)


@BITWISE
@given(st.lists(COEFFS, min_size=1, max_size=6), st.data())
def test_trig_constructors_still_reject_bad_input(half, data):
    k = data.draw(st.integers(0, len(half) - 1))
    f = TrigPoly.from_half_spectrum(half)
    coeffs = list(f.coeffs)
    coeffs[f.n - k] += 1e-6j * (1.0 + f.max_coeff)  # breaks a_{-k} = conj(a_k), k = 0 too
    with pytest.raises(ValueError, match="not Hermitian"):
        TrigPoly(tuple(coeffs), f.n)
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    half[k] = complex(bad, half[k].imag)
    with pytest.raises(BadParameter, match="trigonometric polynomial coefficients must be finite"):
        TrigPoly.from_half_spectrum(half)


@BITWISE
@given(
    st.lists(COEFFS, max_size=9),
    st.lists(COEFFS, max_size=9),
    st.sampled_from(["2n+1", "4n", "300", "1024"]),
)
def test_grid_values_match_pointwise_values(half, skew, rule):
    # skew moves a_{-n} .. a_0 within the constructor's Hermitian tolerance 1e-12 (1 + max);
    # the real transform, like _on_circle, reads a_0 .. a_n only (and Re a_0).
    f = TrigPoly.from_half_spectrum(half)
    coeffs = list(f.coeffs)
    for k, d in enumerate(skew[: f.n + 1]):
        coeffs[k] += 1.2e-13 * (1.0 + f.max_coeff) * d
    f = TrigPoly(tuple(coeffs), f.n)
    size = {"2n+1": 2 * f.n + 1, "4n": max(4 * f.n, 1)}.get(rule) or int(rule)
    found = _grid_values(f.coeffs[f.n :], size)
    expected = f.values(2.0 * math.pi * np.arange(size) / size)
    assert found.shape == expected.shape == (size,)
    assert np.abs(found - expected).max() <= 1e-14 * (1.0 + sum(map(abs, f.coeffs)))
