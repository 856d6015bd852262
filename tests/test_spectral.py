import cmath
import dataclasses
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from gammakit import spectral
from gammakit.inner import circle_gap
from gammakit.polynomials import _EPS, _roots, _schur_cohn_outer
from gammakit.spectral import _correlation, _grid_values, partition_circle_roots
from gammakit.synthesis import build_re

from helpers import (
    BITWISE,
    COEFFS,
    count_calls,
    random_poly,
    random_spec,
    random_unimodular,
    same_bits,
)


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


# -- a narrow double zero between circle_extrema's grid points (ROADMAP item 8) -------

NARROW_ZEROS = json.loads((Path(__file__).parent / "data" / "narrow_circle_zeros.json").read_text())


def _narrow_symbol(record) -> TrigPoly:
    symbol = record["symbol"]
    return TrigPoly(tuple(complex(*c) for c in symbol["coeffs"]), symbol["n"])


@pytest.mark.parametrize("record", NARROW_ZEROS, ids=lambda r: f"seed{r['seed']}-item{r['item']}")
def test_narrow_circle_zero_symbols_have_their_double_zero(record):
    """The four circle-zero symbols of the benchmark's ``factor`` pool that fool the scan.

    ``tests/data/narrow_circle_zeros.json`` holds literal coefficients, made once with
    the benchmark's generator ``generators.factor_pool`` at the sizes of
    ``workloads.build_factor`` (both in ``bench/``, which no test imports)::

        kind, f = workloads.build_factor(seed)[item]  # kind == "circle"
        grid = _grid_values(f.coeffs[f.n :], 1 << 20)
        dense_min_angle = 2 * math.pi * int(grid.argmin()) / (1 << 20)
        record = {"seed": seed, "item": item, "dense_min_angle": dense_min_angle,
                  "symbol": json.loads(serialize(f))}

    for (seed, item) in (424242, 502), (31337, 563), (1, 511), (2, 524): item 502 of
    the default pool and three siblings. Each is |E (lambda - tau)|^2, so tau is a
    genuine double zero; a 2^20-point grid reads it at 1.4e-15 relative or less.
    """
    f = _narrow_symbol(record)
    assert f.value(record["dense_min_angle"]) <= 1e-14 * f.max_coeff


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8 (defect C): circle_extrema refines only the lowest grid point, "
    "a shallower minimum than the narrow double zero",
)
@pytest.mark.parametrize("record", NARROW_ZEROS, ids=lambda r: f"seed{r['seed']}-item{r['item']}")
def test_circle_extrema_finds_a_narrow_double_zero(record):
    # Today each reads 0.9-2.8e-6 relative, at the wrong angle.
    f = _narrow_symbol(record)
    value, angle = circle_extrema(f, DEFAULT_TOL.circle_samples)
    assert value <= 1e-12 * f.max_coeff
    assert abs(cmath.exp(1j * angle) - cmath.exp(1j * record["dense_min_angle"])) <= 1e-4


# -- bit-for-bit properties of the spectral factor's set-up-free Newton --------------
# The code that _newton_factor, _cepstral_factor and the ending of fejer_riesz replaced,
# kept verbatim as the reference: each new path must give the same bits.


def _cepstral_factor_before(f: TrigPoly, degree: int, size: int) -> np.ndarray:
    spectrum = np.zeros(size, dtype=complex)
    spectrum[np.arange(-f.n, f.n + 1)] = f.coeffs  # negative frequencies wrap to the end
    values = np.maximum(np.fft.ifft(spectrum, norm="forward").real, 1e-300)  # f may dip below 0
    cepstrum = np.fft.fft(np.log(values)) / size
    cepstrum[0] *= 0.5
    cepstrum[size // 2 :] = 0.0
    outer = np.exp(np.fft.ifft(cepstrum) * size)
    return np.fft.fft(outer)[: degree + 1] / size


def _newton_factor_before(d, half) -> tuple[np.ndarray, float]:
    n = len(d) - 1
    rows, cols = np.indices((n + 1, n + 1))
    upper, mirror = cols >= rows, cols + rows <= n
    lag, total = np.where(upper, cols - rows, 0), np.where(mirror, cols + rows, 0)
    best, best_res = d, math.inf
    for _ in range(11):
        lagged = np.where(upper, d.conj()[lag], 0.0)  # lagged @ d: the half spectrum of |D|^2
        gap = half - lagged @ d
        res = float(np.abs(gap).max())
        if not res < best_res:
            break
        best, best_res = d, res
        mirrored = np.where(mirror, d[total], 0.0)
        step_map = np.concatenate([lagged + mirrored, 1j * (lagged - mirrored)], axis=1)
        jac = np.concatenate([step_map.real, step_map.imag])  # of (Re delta, Im delta)
        rhs = np.concatenate([gap.real, gap.imag])
        jac[n + 1, n + 1], rhs[n + 1] = 1.0, 0.0  # row n + 1 (Im a_0) is identically zero
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        d = d + delta[: n + 1] + 1j * delta[n + 1 :]
    return best, best_res


def _ending_before(d, scale: float) -> Poly:
    factor = math.sqrt(scale) * Poly(d)
    at_zero = factor(0j)
    return factor * (at_zero / abs(at_zero)).conjugate()


def _fejer_riesz_before(f: TrigPoly, tol=DEFAULT_TOL) -> Poly:
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
    for _ in range(4 if min_val > spectral._ROOT_FREE_DEPTH else 0):
        d, res = _newton_factor_before(_cepstral_factor_before(g, top, size), target)
        if res <= 64.0 * _EPS * (top + 1) and _schur_cohn_outer(d):
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
            d = _newton_factor_before(d, target)[0]

    return _ending_before(d, scale)


def _symbol(seed: int, degree: int, kind: str) -> TrigPoly:
    """|E|^2 of a Gaussian E of the given degree ("modulus"), plus a tenth of its largest
    coefficient ("positive"), or |E (lambda - tau)|^2 with a double zero at tau ("circle")."""
    rng = random.Random(seed)
    if kind == "circle" and degree > 0:
        e = random_poly(rng, degree - 1) * Poly([-random_unimodular(rng), 1.0])
    else:
        e = random_poly(rng, degree)
    f = to_trig_modulus_squared(e)
    if kind == "positive":
        f = TrigPoly.lincomb([(1.0, f), (0.1 * f.max_coeff, TrigPoly.from_half_spectrum([1.0]))])
    return f


_KINDS = st.sampled_from(["modulus", "positive", "circle"])


@BITWISE
@example(seed=0, degree=0, kind="modulus", start="zero")
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
    _KINDS,
    st.sampled_from(["cepstral", "perturbed", "zero", "random"]),
)
def test_newton_factor_matches_the_code_it_replaced(seed, degree, kind, start):
    f = _symbol(seed, degree, kind)
    g = TrigPoly.from_half_spectrum([c / f.max_coeff for c in f.coeffs[f.n :]])
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.n + 1) + 1j * rng.standard_normal(g.n + 1)
    d = {
        "cepstral": lambda: _cepstral_factor_before(g, g.n, 16 * (2 * g.n + 2)),
        "perturbed": lambda: _cepstral_factor_before(g, g.n, 32 * (2 * g.n + 2)) + 1e-3 * noise,
        "zero": lambda: np.zeros(g.n + 1, dtype=complex),  # a singular Jacobian
        "random": lambda: noise,
    }[start]()
    half = np.array(g.coeffs[g.n :])
    found, found_res = spectral._newton_factor(d, half)
    expected, expected_res = _newton_factor_before(d, half)
    assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))
    assert found_res == expected_res


@BITWISE
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), _KINDS, st.data())
def test_cepstral_factor_matches_the_code_it_replaced(seed, degree, kind, data):
    f = _symbol(seed, degree, kind)
    g = TrigPoly.from_half_spectrum([c / f.max_coeff for c in f.coeffs[f.n :]])
    top = data.draw(st.integers(0, g.n))
    size = (1 << (16 * (2 * g.n + 2) - 1).bit_length()) << data.draw(st.integers(0, 3))
    found = spectral._cepstral_factor(g, top, size)
    expected = _cepstral_factor_before(g, top, size)
    assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))


@BITWISE
@given(
    st.lists(COEFFS, min_size=1, max_size=41),
    st.sampled_from([None, 1e-12, 1e-12 * (1 + 2**-52), 1e-12 * (1 - 2**-52), 1e-13]),
    st.floats(1e-150, 1e150) | st.sampled_from([1.0, 2.0, 0.3]),
)
def test_fejer_riesz_ending_matches_the_code_it_replaced(d, tail, scale):
    # The ending alone: Newton hands fejer_riesz the drawn d (any length, signed zeros,
    # a last coefficient at the trimming edge) for the constant symbol of value scale.
    if tail is not None:
        d = d + [tail * max(map(abs, d))]
    d = np.array(d, dtype=complex)
    f = TrigPoly.from_half_spectrum([scale])

    def outcome(factor):
        try:
            return factor().coeffs
        except ZeroDivisionError:  # D(0) = 0: both endings divide by |D(0)|
            return "ZeroDivisionError"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_newton_factor", lambda start, half: (d, 0.0))
        patch.setattr(spectral, "_schur_cohn_outer", lambda cs: True)
        found = outcome(lambda: fejer_riesz(f))
    expected = outcome(lambda: _ending_before(d, scale))
    assert found == expected if isinstance(expected, str) else same_bits(found, expected)


@BITWISE
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), _KINDS)
def test_fejer_riesz_matches_the_code_it_replaced(seed, degree, kind):
    f = _symbol(seed, degree, kind)
    try:
        expected = _fejer_riesz_before(f).coeffs
    except GammaKitError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fejer_riesz(f)
    else:
        assert same_bits(fejer_riesz(f).coeffs, expected)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_newton_factor_zero_start_stops_at_the_singular_jacobian(monkeypatch, n):
    solve, raised = np.linalg.solve, []

    def recording_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    half = np.array([2.0] + [0.5 + 0.25j] * n)
    found, found_res = spectral._newton_factor(np.zeros(n + 1, dtype=complex), half)
    expected, expected_res = _newton_factor_before(np.zeros(n + 1, dtype=complex), half)
    assert raised == [(2 * n + 2, 2 * n + 2)] * 2  # one break in each version
    assert same_bits(found, expected) and not found.any()
    assert found_res == expected_res == 2.0


def test_newton_plan_is_cached_read_only_and_bounded():
    lag, total = spectral._newton_plan(5)
    assert spectral._newton_plan(5)[0] is lag
    assert spectral._newton_plan.cache_info().maxsize == 64
    for index in (lag, total):
        assert index.shape == (6, 6) and not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0
