import cmath
import math
import random

import pytest

from gammakit import (
    DEFAULT_TOL,
    DegreeExceedsBound,
    PointOutOfRegion,
    Poly,
    ZeroPolynomial,
    conj_reciprocal,
    is_n_symmetric,
    l_factor,
    poly_from_roots,
    q_factor,
    roots_with_multiplicity,
)
from gammakit.polynomials import _ClusterContext

from helpers import circle_points, random_poly, same_multiset


def test_add_mul_eval():
    assert (Poly([1]) + Poly([0, 1])).coeffs == (1, 1)
    assert (Poly([-1, 1]) * Poly([1, 1])).coeffs == (-1, 0, 1)
    assert Poly([2, 0, 1])(1j) == pytest.approx(1.0)


def test_normalization_trims_trailing_noise():
    p = Poly([1.0, 2.0, 1e-15])
    assert p.degree == 1
    assert Poly([0.0, 0.0]).is_zero()
    assert Poly([1e-20, 1e-20]).degree == 1  # uniformly tiny stays


def test_scalar_multiplication_and_sub():
    p = 2.0 * Poly([1, 1])
    assert p.coeffs == (2, 2)
    assert (p - p).is_zero()
    assert (-p).coeffs == (-2, -2)


def test_conj_reciprocal_examples():
    assert conj_reciprocal(Poly([1, 2]), 1).coeffs == (2, 1)
    assert conj_reciprocal(Poly([0, 0, 1j]), 2).coeffs == (-1j,)
    assert conj_reciprocal(Poly([1, 0.5]), 2).coeffs == (0, 0.5, 1)


def test_conj_reciprocal_degree_guard():
    with pytest.raises(DegreeExceedsBound):
        conj_reciprocal(Poly([1, 1, 1]), 1)


def test_conj_reciprocal_involution():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng, rng.randint(0, 6))
        n = f.degree + rng.randint(0, 3)
        back = conj_reciprocal(conj_reciprocal(f, n), n)
        assert max(abs(a - b) for a, b in zip(f.padded(n + 1), back.padded(n + 1))) < 1e-14


def test_reflection_preserves_circle_modulus():
    rng = random.Random(5)
    f = random_poly(rng, 5)
    g = conj_reciprocal(f, 7)
    for lam in circle_points(64):
        assert abs(abs(f(lam)) - abs(g(lam))) < 1e-12 * (1 + f.max_coeff)


def test_is_n_symmetric():
    assert is_n_symmetric(Poly([-1j, 1j]), 1)
    assert is_n_symmetric(Poly([0, 1]), 2)
    assert not is_n_symmetric(Poly([1, 2]), 1)
    assert not is_n_symmetric(Poly([1, 1, 1]), 1)  # degree beyond the bound


def test_roots_simple_and_double():
    roots = roots_with_multiplicity(Poly([1, -2.5, 1]))
    assert same_multiset([z for z, _ in roots], [0.5, 2.0], 1e-12)
    assert all(m == 1 for _, m in roots)

    ((z, m),) = roots_with_multiplicity(Poly([1, 2, 1]))
    assert m == 2 and abs(z + 1) < 1e-10


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        roots_with_multiplicity(Poly())


def test_roots_random_recovery():
    rng = random.Random(23)
    for _ in range(20):
        wanted = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        p = poly_from_roots([(z, 1) for z in wanted], complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        found = [z for z, m in roots_with_multiplicity(p) for _ in range(m)]
        assert same_multiset(found, wanted, 1e-8)


def test_roots_high_multiplicity_cluster():
    z0 = 0.4 + 0.3j
    p = poly_from_roots([(z0, 4), (-0.7, 1)])
    found = dict()
    for z, m in roots_with_multiplicity(p):
        found[m] = z
    assert abs(found[4] - z0) < 1e-9
    assert abs(found[1] + 0.7) < 1e-9


def test_isolated_roots_skip_hypothesis_tests(monkeypatch):
    calls = []
    resolvability = _ClusterContext.resolvability

    def counted(self, z, m):
        calls.append(m)
        return resolvability(self, z, m)

    monkeypatch.setattr(_ClusterContext, "resolvability", counted)
    rng = random.Random(16)
    wanted = []
    while len(wanted) < 16:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if all(abs(z - w) >= 0.1 for w in wanted):
            wanted.append(z)
    found = roots_with_multiplicity(poly_from_roots([(z, 1) for z in wanted]))
    assert calls == []
    assert all(m == 1 for _, m in found)
    assert same_multiset([z for z, _ in found], wanted, 1e-8)

    # A genuine cluster still goes through the hypothesis walk.
    z0 = 0.4 + 0.3j
    found = {m: z for z, m in roots_with_multiplicity(poly_from_roots([(z0, 4), (-0.7, 1)]))}
    assert calls
    assert abs(found[4] - z0) < 1e-9


def test_roots_are_builtin_complex_and_int():
    # A numpy scalar leaking out would change RoyalNode reprs under numpy 2.
    rng = random.Random(41)
    cases = [
        random_poly(rng, 9),
        poly_from_roots([(0.3 - 0.2j, 3), (0.8, 1)]),
        Poly([0, 0, 1, -2.5, 1]),
    ]
    found = [roots_with_multiplicity(p) for p in cases]
    for p, roots in zip(cases, found):
        assert sum(m for _, m in roots) == p.degree
        assert all(type(z) is complex and type(m) is int for z, m in roots)
    assert 3 in [m for _, m in found[1]]
    assert (0j, 2) in found[2]


def test_roots_residual_bound():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poly(rng, 9)
        for z, _ in roots_with_multiplicity(p):
            assert abs(p(z)) <= DEFAULT_TOL.eps_root * p.max_coeff * max(1.0, abs(z)) ** 9


def test_roots_expansion_reproduces_input():
    rng = random.Random(17)
    p = random_poly(rng, 7)
    roots = roots_with_multiplicity(p)
    rebuilt = poly_from_roots(roots, p.coeffs[-1])
    gap = max(abs(a - b) for a, b in zip(p.padded(8), rebuilt.padded(8)))
    assert gap < 1e-9 * (1 + p.max_coeff)


def test_q_factor():
    assert q_factor(0).coeffs == (0, 1)
    assert q_factor(-1).coeffs == (1, 2, 1)
    with pytest.raises(PointOutOfRegion):
        q_factor(1.5)


def test_l_factor():
    lt = l_factor(1)
    assert max(abs(a - b) for a, b in zip(lt.coeffs, (-1j, 1j))) < 1e-15
    with pytest.raises(PointOutOfRegion):
        l_factor(0.5)


def test_l_squared_is_q():
    rng = random.Random(3)
    for _ in range(16):
        tau = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        lt = l_factor(tau)
        sq = lt * lt
        qt = q_factor(tau)
        assert max(abs(a - b) for a, b in zip(sq.padded(3), qt.padded(3))) < 1e-12


def test_q_gives_squared_distance_on_circle():
    rng = random.Random(9)
    for _ in range(16):
        sigma = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        q = q_factor(sigma)
        for lam in circle_points(16):
            value = q(lam) / lam
            assert abs(value.imag) < 1e-12
            assert abs(value.real - abs(lam - sigma) ** 2) < 1e-12


def test_factor_symmetries():
    rng = random.Random(41)
    for _ in range(8):
        sigma = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        tau = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert is_n_symmetric(q_factor(sigma), 2)
        assert is_n_symmetric(l_factor(tau), 1)
