import math
import random

import numpy as np
import pytest

from gammakit import (
    NotBalanced,
    NotNonnegative,
    Poly,
    TrigPoly,
    ZeroPolynomial,
    circle_extrema,
    fejer_riesz,
    roots_with_multiplicity,
    to_trig_modulus_squared,
    to_trig_shifted,
)

from helpers import random_poly


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


def test_fejer_riesz_double_circle_zero():
    # |(lambda - 1)|^2 style input: zero of order 2 at 1 on the circle
    e = Poly([-1, 1]) * Poly([0.5, 1])
    f = to_trig_modulus_squared(e)
    d = fejer_riesz(f)
    assert d.degree == 2
    roots = dict((round(abs(z), 6), m) for z, m in roots_with_multiplicity(d))
    assert roots.get(1.0) == 1
    assert _factor_residual(d, f) < 1e-9 * (1 + max(abs(c) for c in f.coeffs))


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


def test_trig_poly_rejects_non_hermitian():
    with pytest.raises(ValueError):
        TrigPoly((1j, 2.0, 1j), 1)
    with pytest.raises(ValueError):
        TrigPoly((1.0, 2.0), 1)
