import cmath
import math
import random

import pytest

import gammakit.royal
from gammakit import (
    NodeRegion,
    OrderOverflow,
    Poly,
    RoyalVariety,
    SynthesisSpec,
    boundary_flatness,
    from_inner_pair,
    geodesic,
    h_nu,
    is_n_balanced,
    is_s_extreme,
    is_superficial,
    q_factor,
    recover_spec,
    royal_polynomial,
    royal_profile,
    superficial,
    synthesize,
    validate,
    witness_non_extreme,
)

from helpers import random_unimodular, same_multiset


def test_royal_polynomial_h0():
    r = royal_polynomial(h_nu(0, 0.5))
    assert max(abs(a - b) for a, b in zip(r.padded(4), (0, 2, 4, 2))) < 1e-14


def test_royal_polynomial_variety_branch():
    h = validate(Poly([0, 2]), Poly([1]), 2)
    with pytest.raises(RoyalVariety):
        royal_polynomial(h)
    squared = from_inner_pair((Poly([0, 1]), Poly([1]), 1), (Poly([0, 1]), Poly([1]), 1))
    with pytest.raises(RoyalVariety):
        royal_polynomial(squared)


def test_royal_polynomial_geodesic_node():
    beta = cmath.exp(1j * math.pi / 4)
    r = royal_polynomial(geodesic(beta))
    assert abs(r(1j)) < 1e-12


def test_is_n_balanced():
    assert is_n_balanced(Poly([0, 2, 4, 2]), 2)
    assert is_n_balanced(q_factor(0.3 + 0.1j), 1)
    assert not is_n_balanced(Poly([1, 0, 0, 0, 1]), 2)  # 2 cos 2t goes negative


def test_royal_polynomial_is_balanced():
    for h in (h_nu(0, 0.5), h_nu(2, 0.7), geodesic(0.3 + 0.4j), superficial(1j, Poly([1, 0.3]), 1)):
        assert is_n_balanced(royal_polynomial(h), h.degree)


def test_royal_profile_h0():
    profile = royal_profile(h_nu(0, 0.5))
    assert profile.type_pair == (2, 1)
    locs = {nd.region: nd.location for nd in profile.nodes}
    assert abs(locs[NodeRegion.DISC]) < 1e-12
    assert abs(locs[NodeRegion.CIRCLE] + 1) < 1e-10


def test_royal_profile_h1():
    profile = royal_profile(h_nu(1, 0.5))
    assert profile.type_pair == (4, 3)
    expected = [cmath.exp(1j * math.pi / 3), -1, cmath.exp(-1j * math.pi / 3)]
    found = [nd.location for nd in profile.circle_nodes()]
    assert same_multiset(found, expected, 1e-8)
    assert all(nd.multiplicity == 1 for nd in profile.nodes)


def test_royal_profile_geodesics():
    assert royal_profile(geodesic(0.5)).type_pair == (1, 0)
    profile = royal_profile(geodesic(1j))
    assert profile.type_pair == (1, 1)
    assert abs(profile.nodes[0].location + 1) < 1e-10  # beta^2 = -1


@pytest.fixture
def count_royal_solves(monkeypatch):
    solved = []
    solve = gammakit.royal.roots_with_multiplicity

    def counting(f, tol):
        solved.append(f)
        return solve(f, tol)

    monkeypatch.setattr(gammakit.royal, "roots_with_multiplicity", counting)
    return solved


def test_royal_profile_computed_once_per_map(count_royal_solves):
    spec = SynthesisSpec(
        alphas=(0.3 + 0.2j,), taus=(1j,), sigmas=(0.5, -1, 0.2j), t_plus=1.0, t=0.8, omega=1.0
    )
    h = synthesize(spec)
    shown, hashed = repr(h), hash(h)
    profile = royal_profile(h)
    assert royal_profile(h) is profile
    assert (repr(h), hash(h)) == (shown, hashed)
    assert royal_profile(h, h.tol) is profile
    recover_spec(h)
    witness_non_extreme(h)
    assert is_s_extreme(h) is False
    assert len(count_royal_solves) == 1


def test_royal_profile_memo_respects_tol(count_royal_solves):
    h = h_nu(1, 0.5)
    loose = h.tol.with_overrides(eps_root=1e-9)
    profile = royal_profile(h)
    other = royal_profile(h, loose)
    assert other is not profile and other.type_pair == profile.type_pair
    assert royal_profile(h) is profile
    assert len(count_royal_solves) == 2

    twin = h_nu(1, 0.5, loose)
    assert twin == h and hash(twin) == hash(h)
    assert royal_profile(twin) is not profile
    assert len(count_royal_solves) == 3


def test_multiplicity_identity():
    # 2 ord_0 + 2 ord_{D minus 0} + ord_T = 2 deg(h)
    for h in (h_nu(0, 0.5), h_nu(1, 0.2), h_nu(3, 0.8), geodesic(0.7)):
        profile = royal_profile(h)
        ord_0 = sum(
            nd.multiplicity
            for nd in profile.disc_nodes()
            if abs(nd.location) < 1e-9
        )
        ord_disc = sum(
            nd.multiplicity
            for nd in profile.disc_nodes()
            if abs(nd.location) >= 1e-9
        )
        ord_circle = sum(2 * nd.multiplicity for nd in profile.circle_nodes())
        assert 2 * ord_0 + 2 * ord_disc + ord_circle == 2 * h.degree
        assert profile.n == h.degree


def test_no_circle_s_zero_is_a_node():
    # zeros of s on the circle never coincide with circle royal nodes
    from gammakit import roots_with_multiplicity

    for h in (h_nu(0, 0.5), h_nu(2, 0.4)):
        profile = royal_profile(h)
        s_circle_zeros = [
            z for z, _ in roots_with_multiplicity(h.E) if abs(abs(z) - 1) <= 1e-8
        ]
        for node in profile.circle_nodes():
            for z in s_circle_zeros:
                assert abs(z - node.location) > 1e-8


def test_boundary_flatness_h0():
    h = h_nu(0, 0.5)
    assert boundary_flatness(h, -1) == 2
    assert boundary_flatness(h, 1) == 0


def test_boundary_flatness_matches_multiplicity():
    for nu, r in ((1, 0.5), (2, 0.9), (4, 0.9)):
        h = h_nu(nu, r)
        for node in royal_profile(h).circle_nodes():
            assert boundary_flatness(h, node.location) == 2 * node.multiplicity


def test_boundary_flatness_geodesic():
    assert boundary_flatness(geodesic(1j), -1) == 2


def test_boundary_flatness_overflow_on_royal_variety():
    h = validate(Poly([0, 2]), Poly([1]), 2)  # |s| = 2 on the whole circle
    with pytest.raises(OrderOverflow):
        boundary_flatness(h, 1)


def test_is_s_extreme():
    assert not is_s_extreme(h_nu(0, 0.5))
    assert is_s_extreme(h_nu(1, 0.5))
    assert not is_s_extreme(geodesic(0.5))
    assert is_s_extreme(geodesic(1j))


def test_is_superficial():
    sup = superficial(1, Poly([1, 0.5]), 1)
    assert is_superficial(sup) == pytest.approx(1)
    assert is_superficial(h_nu(0, 0.5)) is None
    beta = random_unimodular(random.Random(6))
    assert is_superficial(geodesic(beta)) == pytest.approx(beta)


def test_superficial_type_and_extremity():
    rng = random.Random(14)
    for degree in (1, 2, 3):
        den = Poly([1]) + Poly([0] * degree + [0.3 * rng.random()])
        omega = random_unimodular(rng)
        h = superficial(omega, den, degree)
        profile = royal_profile(h)
        assert profile.type_pair == (degree, degree)
        assert is_s_extreme(h)
        got = is_superficial(h)
        assert got is not None and abs(got - omega) < 1e-9
