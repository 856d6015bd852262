import cmath
import math
import random

import pytest

from gammakit import (
    BadParameter,
    GammaRegion,
    NotOnTorusFiber,
    classify_point,
    mobius_chart,
    royal_residual,
    symmetrize,
)


def test_symmetrize():
    assert symmetrize(1, 1) == (2, 1)
    assert symmetrize(1, 0) == (1, 0)
    s, p = symmetrize(1j, -1j)
    assert abs(s) < 1e-15 and abs(p - 1) < 1e-15


def test_classify_examples():
    assert classify_point(0, 0) is GammaRegion.INTERIOR
    assert classify_point(2, 1) is GammaRegion.DISTINGUISHED_BOUNDARY
    assert classify_point(1, 0) is GammaRegion.BOUNDARY
    assert classify_point(3, 1) is GammaRegion.OUTSIDE


@pytest.mark.parametrize(
    "s, p", [(math.nan, 0.3), (0, complex(0, math.nan)), (math.inf, 0), (0, -math.inf)]
)
def test_classify_rejects_non_finite(s, p):
    with pytest.raises(BadParameter, match="not a finite point"):
        classify_point(s, p)


def test_image_of_closed_bidisc_never_outside():
    rng = random.Random(2024)
    for _ in range(1000):
        z = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        assert classify_point(*symmetrize(z, w)) is not GammaRegion.OUTSIDE


def test_torus_image_is_distinguished_boundary():
    rng = random.Random(77)
    for _ in range(200):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        region = classify_point(*symmetrize(z, w))
        assert region is GammaRegion.DISTINGUISHED_BOUNDARY


def test_classification_conjugation_invariant():
    rng = random.Random(13)
    for _ in range(200):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert classify_point(s, p) is classify_point(s.conjugate(), p.conjugate())


def test_royal_residual():
    beta = 0.3 + 0.4j
    assert abs(royal_residual(2 * beta, beta * beta)) < 1e-15
    assert royal_residual(0, 0) == 0
    assert royal_residual(1, 0) == 1


def test_chart_examples():
    assert mobius_chart(2, 1, 0.0) == (1.0, 0.0)
    x, theta = mobius_chart(0, -1, 0.0)
    assert x == pytest.approx(0.0) and theta == pytest.approx(math.pi)
    omega = cmath.exp(1j * math.pi / 4)
    x, theta = mobius_chart(2 * omega, omega * omega, 0.0)
    assert x == pytest.approx(1.0) and theta == pytest.approx(math.pi / 2)


def test_chart_requires_unimodular_p():
    with pytest.raises(NotOnTorusFiber, match=r"\|\|p\| - 1\| = 5\.000e-01"):
        mobius_chart(1, 0.5, 0.0)


@pytest.mark.parametrize(
    "s, p, branch_ref",
    [
        (math.nan, 1, 0.0),
        (1, math.nan, 0.0),
        (complex(0, math.inf), 1, 0.0),
        (0, complex(1, -math.inf), 0.0),
        (2, 1, math.nan),
        (2, 1, -math.inf),
    ],
)
def test_chart_rejects_non_finite(s, p, branch_ref):
    with pytest.raises(BadParameter, match="is not finite"):
        mobius_chart(s, p, branch_ref)


def test_chart_branch_tracking():
    # Walk p = e^{i t} past the principal-branch cut; theta must not jump.
    branch = 0.0
    prev = None
    for j in range(64):
        t = 6.0 * math.pi * j / 64
        p = cmath.exp(1j * t)
        omega = cmath.exp(0.5j * t)
        _, theta = mobius_chart(2 * omega, p, branch)
        if prev is not None:
            assert abs(theta - prev) < 1.0
        prev = theta
        branch = theta
    assert prev == pytest.approx(6.0 * math.pi * 63 / 64)


def test_chart_round_trip_on_distinguished_boundary():
    rng = random.Random(5)
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        x = rng.uniform(-1, 1)
        s = 2 * x * cmath.exp(0.5j * theta)
        p = cmath.exp(1j * theta)
        got_x, got_theta = mobius_chart(s, p, theta)
        assert abs(got_x) <= 1 + 1e-12
        s_back = 2 * got_x * cmath.exp(0.5j * got_theta)
        p_back = cmath.exp(1j * got_theta)
        assert abs(s_back - s) < 1e-12 and abs(p_back - p) < 1e-12
