import cmath
import math
import random

import numpy as np
import pytest

from gammakit import (
    DEFAULT_TOL,
    BadParameter,
    ConditionFailed,
    GammaRegion,
    NotInner,
    Poly,
    ToleranceConfig,
    boundary_flatness,
    classify_point,
    conj_reciprocal,
    eval_h,
    fejer_riesz,
    from_inner_pair,
    geodesic,
    h_nu,
    is_n_symmetric,
    poly_from_roots,
    recover_spec,
    roots_with_multiplicity,
    royal_profile,
    superficial,
    synthesize,
    to_trig_modulus_squared,
    trace_boundary,
    validate,
)

from gammakit.inner import _closed_disc_zero
from helpers import circle_points, count_calls, random_spec, random_unimodular


def test_validate_h_nu_family_representation():
    h = h_nu(0, 0.5)
    assert h.E.coeffs == (0, 1)
    assert h.D.coeffs == (1, 0.5)
    assert h.n == 2 and h.degree == 2


def test_validate_rejects_large_s():
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([3]), Poly([1]), 1)
    assert "iv" in err.value.failed


def test_validate_rejects_disc_zero_denominator():
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([0, 1]), Poly([-0.5, 1]), 1)
    assert "iii" in err.value.failed
    assert err.value.details["iii"] == "D has a zero of modulus 0.5 on the closed disc"


def test_validate_strict_map_solves_no_roots(monkeypatch):
    h = h_nu(2, 0.9)
    solves = count_calls(monkeypatch, "roots_with_multiplicity", roots_with_multiplicity)
    assert validate(h.E, h.D, h.n) == h
    assert not solves


def test_library_solves_and_evaluates_through_the_public_layer(monkeypatch):
    # The benchmark tracer wraps roots_with_multiplicity and eval_h by identity in every
    # gammakit namespace, as count_calls does; a solve or an evaluation of h that bypassed
    # them would be booked to its caller.
    h = h_nu(1, 0.5)
    solves = count_calls(monkeypatch, "roots_with_multiplicity", roots_with_multiplicity)
    values = count_calls(monkeypatch, "eval_h", eval_h)
    profile = royal_profile(h)
    assert [args[0] for args in solves] == [h.royal]
    recover_spec(h)  # the profile is memoized on h, so E is the only new solve
    assert [args[0] for args in solves[1:]] == [h.E]
    converse = validate(Poly([0.5, 1, 0.5]), Poly([1, 1]), 2, strict=False)  # D(-1) = 0
    assert [args[0] for args in solves[2:]] == [Poly([1, 1])]  # the reduced D is constant
    assert converse.D.degree == 0
    symbol = to_trig_modulus_squared(Poly([-1, 1]) * Poly([0.5, 1]))  # a circle zero: root pairing
    fejer_riesz(symbol)
    assert [args[0].degree for args in solves[3:]] == [2 * symbol.n]  # the scaled symbol
    trace_boundary(h, 64)
    assert len(values) == 1
    assert boundary_flatness(h, profile.circle_nodes()[0].location) == 2
    assert len(values) == 2


def test_closed_disc_zero_agrees_with_root_rule():
    # One root planted near the circle and near the rule's edge 1 + eps_circle,
    # the others well outside; the Schur-Cohn verdict must match the roots'.
    rng = random.Random(7)
    edge = 1.0 + DEFAULT_TOL.eps_circle
    cases = 0
    for degree in range(1, 33):
        others = [(cmath.rect(rng.uniform(1.05, 3.0), rng.uniform(0, 2 * math.pi)), 1)
                  for _ in range(degree - 1)]
        angle = rng.uniform(0, 2 * math.pi)
        lead = random_unimodular(rng)
        for centre in (1.0, edge):
            for j in range(1, 16):
                for modulus in (centre - 10.0**-j, centre + 10.0**-j):
                    if abs(modulus - edge) <= 1e-10:
                        continue
                    p = poly_from_roots([(cmath.rect(modulus, angle), 1)] + others, lead)
                    inside = any(abs(z) < edge for z, _ in roots_with_multiplicity(p))
                    assert (_closed_disc_zero(p, DEFAULT_TOL) is not None) == inside
                    cases += 1
    assert cases > 1500


def test_plain_band_edges_agree_across_consumers():
    # D's circle zeros may be simple, so one band |r - 1| <= eps_circle places them: the
    # non-strict validate cancels a root at 1 +- eps_circle / 2 as a circle zero and keeps
    # one at 1 + 2 eps_circle, and _closed_disc_zero finds exactly the cancelled ones.
    eps = DEFAULT_TOL.eps_circle
    direction = cmath.exp(0.7j)
    for modulus, circle_zeros in ((1 + eps / 2, 1), (1 - eps / 2, 1), (1 + 2 * eps, 0)):
        d = poly_from_roots([(modulus * direction, 1), (2.5, 1)])
        assert validate(Poly([]), d, 2, strict=False).n == 2 - circle_zeros
        assert (_closed_disc_zero(d, DEFAULT_TOL) is not None) == bool(circle_zeros)
    # One at 1 - 2 eps_circle lies in the open disc.
    d = poly_from_roots([((1 - 2 * eps) * direction, 1), (2.5, 1)])
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([]), d, 2, strict=False)
    assert err.value.details == {"iii": "D has a zero of modulus 0.99999998 in the open disc"}
    assert abs(abs(_closed_disc_zero(d, DEFAULT_TOL)) - (1 - 2 * eps)) < 1e-15


def test_validate_rejects_degree_overflow_and_asymmetry():
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([1, 2]), Poly([1]), 1)
    assert "ii" in err.value.failed
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([0, 0, 1]), Poly([1]), 1)
    assert "i" in err.value.failed


def test_validate_rejects_bare_lambda_numerator():
    # E = lambda with n = 1 reflects to the constant 1, so (ii) fails; the
    # would-be map (lambda, lambda) indeed leaves the distinguished boundary.
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([0, 1]), Poly([1]), 1)
    assert "ii" in err.value.failed


def test_validate_degree_one_geodesic_form():
    h = validate(Poly([1, 1]), Poly([1]), 1)
    s, p = h.eval(0.3 + 0.1j)
    assert s == pytest.approx(1.3 + 0.1j)
    assert p == pytest.approx(0.3 + 0.1j)


def test_validate_converse_mode_allows_circle_zeros():
    # D = 1 - lambda vanishes at 1 on the circle; only allowed non-strictly, where the zero
    # cancels with E's. With E = 0 and n = 1 what is left is a constant map, of degree 0.
    d = Poly([1, -1])
    e = Poly([0, 0])
    with pytest.raises(ConditionFailed):
        validate(e, d, 1, strict=True)
    with pytest.raises(BadParameter, match="cancel at D's circle zero 1.* to a constant map"):
        validate(e, d, 1, strict=False)
    h = validate(e, d * Poly([2, 1]), 2, strict=False)
    assert h.n == 1 and h.E.is_zero() and abs(h.D(-2)) < 1e-15


def test_strictness_is_no_part_of_a_map_without_circle_zeros_of_d():
    # A map does not record how it was validated, so where D has no circle zero the strict
    # and the non-strict map are equal (E, D and n).
    rng = random.Random(5)
    maps = [h_nu(1, 0.5), geodesic(0.3j)] + [synthesize(random_spec(rng)) for _ in range(8)]
    for h in maps:
        assert validate(h.E, h.D, h.n) == validate(h.E, h.D, h.n, strict=False)


def test_converse_repro_reduces_to_the_strict_degree_one_map():
    # (E, D) = ((1 + lambda)^2 / 2, 1 + lambda) at n = 2 share the circle zero -1, which
    # cancels, leaving ((1 + lambda) / 2, 1) at n = 1: h = ((1 + lambda) / 2, lambda), of
    # type (1, 0).
    h = validate(Poly([0.5, 1, 0.5]), Poly([1, 1]), 2, strict=False)
    assert h == validate(Poly([0.5, 0.5]), Poly([1]), 1)
    assert royal_profile(h).type_pair == (1, 0)


def _circle_factor(tau):
    """(lambda - tau) / sqrt(-tau), 1-symmetric for a unimodular tau."""
    return (1 / cmath.sqrt(-tau)) * Poly([-tau, 1])


def _converse_pair(h, circle_zeros):
    """h's E and D times each ``_circle_factor``: an unreduced pair with h's s and p, whose
    D has those circle zeros, and its degree bound."""
    e, d = h.E, h.D
    for tau in circle_zeros:
        e, d = e * _circle_factor(tau), d * _circle_factor(tau)
    return e, d, h.n + len(circle_zeros)


@pytest.mark.parametrize(
    "circle_zeros",
    [(-1,), (cmath.exp(2.1j),), (1j, cmath.exp(-0.4j)), (cmath.exp(0.9j),) * 2],
    ids=["minus-one", "simple", "two-simple", "double"],
)
def test_converse_reduction_keeps_s_and_p(circle_zeros):
    h = h_nu(1, 0.5)
    e, d, n = _converse_pair(h, circle_zeros)
    reduced = validate(e, d, n, strict=False)
    assert reduced.n == h.n
    lam = 0.7 * np.exp(2j * np.pi * np.arange(64) / 64)
    s, p = eval_h(reduced, lam)
    assert np.max(np.abs(s - e(lam) / d(lam))) < 1e-14
    assert np.max(np.abs(p - conj_reciprocal(d, n)(lam) / d(lam))) < 1e-14


def test_converse_reduction_needs_e_to_vanish_as_often_as_d():
    # D has a double circle zero at tau and E a simple one; E's other new factor, 1 + lambda,
    # keeps it (n + 2)-symmetric. Near tau, |E|^2 outgrows 4 |D|^2: (iv) fails.
    tau = cmath.exp(0.9j)
    e, d, n = _converse_pair(h_nu(1, 0.5), (tau,))
    with pytest.raises(ConditionFailed) as err:
        validate(e * Poly([1, 1]), d * _circle_factor(tau), n + 1, strict=False)
    assert err.value.failed == ("iv",)


def test_converse_mode_rejects_an_e_that_does_not_vanish_at_a_circle_zero_of_d():
    # E = (i - i lambda) / 2 vanishes at 1, D = 1 + lambda at -1, where |E| = 1 > 2 |D| = 0.
    with pytest.raises(ConditionFailed) as err:
        validate(Poly([0.5j, -0.5j]), Poly([1, 1]), 1, strict=False)
    assert err.value.failed == ("iv",)
    assert err.value.details["iv"].startswith("4|D|^2 - |E|^2 reaches -1")


def test_validate_rejects_constant_degree():
    with pytest.raises(BadParameter):
        validate(Poly([1]), Poly([1]), 0)


@pytest.mark.parametrize(
    "build, args",
    [
        (validate, (Poly([0.5, 0.5]), Poly([1.0]), True)),
        (validate, (Poly([0.5, 0.5]), Poly([1.0]), 1.0)),
        (h_nu, (1.5, 0.5)),
        (h_nu, (True, 0.5)),
        (superficial, (1, Poly([1, 0.5]), True)),
        (superficial, (1, Poly([1, 0.5]), 1.5)),
    ],
    ids=["validate-bool", "validate-float", "h_nu-float", "h_nu-bool", "superficial-bool",
         "superficial-float"],
)
def test_map_constructors_require_an_integer_degree(build, args):
    with pytest.raises(BadParameter, match="must be a.* integer, not"):
        build(*args)


def test_eval_h_examples():
    h = h_nu(0, 0.5)
    s, p = h.eval(0)
    assert s == 0 and p == 0
    s, p = h.eval(-1)
    assert s == pytest.approx(-2) and p == pytest.approx(1)
    assert classify_point(s, p) is GammaRegion.DISTINGUISHED_BOUNDARY


def test_eval_domain_guard():
    with pytest.raises(ValueError):
        h_nu(0, 0.5).eval(1.5)
    for bad in (math.nan, complex(0.2, math.nan), math.inf):
        with pytest.raises(ValueError, match="outside the closed disc"):
            h_nu(0, 0.5).eval(bad)


def test_eval_pole_on_domain():
    from gammakit import PoleOnDomain

    # D's zero lies just past the band 1 + eps_circle, so the map is valid, but D vanishes
    # to rounding at the band's edge, which eval_h still takes as a point of the disc.
    eps = DEFAULT_TOL.eps_circle
    h = validate(Poly([]), Poly([-(1 + eps) * (1 + 1e-14), 1]), 1)
    with pytest.raises(PoleOnDomain):
        h.eval(1 + eps)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_eval_h_of_an_empty_array_is_two_empty_arrays(shape):
    s, p = eval_h(h_nu(0, 0.5), np.zeros(shape))
    assert s.shape == p.shape == shape
    assert s.dtype == p.dtype == complex


def test_zero_numerator_is_valid():
    h = validate(Poly([]), Poly([1]), 1)
    s, p = h.eval(0.5)
    assert s == 0 and p == 0.5


def test_boundary_values_on_distinguished_boundary():
    rng = random.Random(8)
    for h in (h_nu(1, 0.3), geodesic(0.4 + 0.2j), h_nu(2, 0.9)):
        for lam in circle_points(64):
            s, p = h.eval(lam)
            assert abs(abs(p) - 1) <= 1e-9
            assert abs(s - s.conjugate() * p) <= 1e-9
    _ = rng


def test_degree_examples():
    for nu in range(6):
        for r in (0.1, 0.5, 0.9):
            assert h_nu(nu, r).degree == 2 * nu + 2
    assert geodesic(0.3).degree == 1
    assert validate(Poly([0, 2]), Poly([1]), 2).degree == 2


def test_eval_lands_in_gamma():
    rng = random.Random(71)
    for h in (h_nu(0, 0.5), h_nu(2, 0.9), geodesic(0.3 - 0.5j)):
        for _ in range(50):
            lam = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            s, p = h.eval(lam)
            assert classify_point(s, p) is not GammaRegion.OUTSIDE


def test_from_inner_pair_royal_square():
    phi = (Poly([0, 1]), Poly([1]), 1)
    h = from_inner_pair(phi, phi)
    assert h.E.coeffs == (0, 2) and h.n == 2


def test_from_inner_pair_matches_pointwise_product():
    a = 0.5
    phi = (conj_reciprocal(Poly([1, -a]), 1), Poly([1, -a]), 1)
    psi = (Poly([0, 1]), Poly([1]), 1)
    h = from_inner_pair(phi, psi)
    assert h.n == 2
    rng = random.Random(21)
    for _ in range(32):
        lam = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        phi_v = (lam - a) / (1 - a * lam)
        s, p = h.eval(lam)
        assert s == pytest.approx(phi_v + lam, abs=1e-12)
        assert p == pytest.approx(phi_v * lam, abs=1e-12)


def test_from_inner_pair_constant_factor():
    phi = (Poly([0, 1]), Poly([1]), 1)
    psi = (Poly([1]), Poly([1]), 0)
    h = from_inner_pair(phi, psi)
    assert h.E.coeffs == (1, 1) and h.D.coeffs == (1,) and h.n == 1


def test_from_inner_pair_rejects_non_inner():
    bad = (Poly([0, 1]), Poly([-0.5, 1]), 1)  # denominator vanishes inside
    with pytest.raises(NotInner):
        from_inner_pair(bad, (Poly([1]), Poly([1]), 0))
    mismatched = (Poly([1, 1]), Poly([1, 0.5]), 1)
    with pytest.raises(NotInner):
        from_inner_pair(mismatched, (Poly([1]), Poly([1]), 0))


@pytest.mark.parametrize(
    "phi, psi",
    [
        ((Poly([0.5, 1]), Poly([1, 0.5]), 1.0), (Poly([0.5, 1]), Poly([1, 0.5]), 1)),
        ((Poly([0.5, 1]), Poly([1, 0.5]), True), (Poly([1]), Poly([1]), False)),
    ],
    ids=["float", "bool"],
)
def test_from_inner_pair_requires_an_integer_degree(phi, psi):
    with pytest.raises(NotInner, match="^phi: invalid Blaschke data"):
        from_inner_pair(phi, psi)


def test_from_inner_pair_rejects_a_numerator_above_its_degree_bound():
    # Its coefficient 0.01 at lambda^2 lies past the reflection the Blaschke check compares.
    high = (Poly([0.5, 1, 0.01]), Poly([1, 0.5]), 1)
    with pytest.raises(NotInner, match="^phi: "):
        from_inner_pair(high, (Poly([0.3, 1]), Poly([1, 0.3]), 1))


def test_from_inner_pair_rejects_a_denominator_above_its_degree_bound():
    high = (Poly([0.5, 1]), Poly([1, 0.5, 0.01]), 1)
    with pytest.raises(NotInner, match="^psi: "):
        from_inner_pair((Poly([0.3, 1]), Poly([1, 0.3]), 1), high)


def test_reflection_checks_accept_a_gap_at_their_bound_and_no_more():
    # With a power-of-two eps_residual and largest coefficient 1, the bound
    # eps_residual * (1 + 1) and each reflection gap below are exact.
    tol = ToleranceConfig(eps_residual=2.0**-10)
    bound = 2.0**-9
    psi = (Poly([-1j]), Poly([1j]), 0)  # the constant -1
    assert is_n_symmetric(Poly([0, 1, bound]), 2, tol)
    h = from_inner_pair((Poly([bound, 1]), Poly([1]), 1), psi, tol)
    assert h.E.coeffs == ((bound - 1) * 1j, 1j) and h.D.coeffs == (1j,)
    above = math.nextafter(bound, math.inf)
    assert not is_n_symmetric(Poly([0, 1, above]), 2, tol)
    with pytest.raises(NotInner, match="^phi: numerator is not the reflected denominator"):
        from_inner_pair((Poly([above, 1]), Poly([1]), 1), psi, tol)


def test_canonical_examples():
    h = h_nu(0, 0.5)
    assert h.E.coeffs == (0, 1) and h.D.coeffs == (1, 0.5) and h.n == 2

    g = geodesic(0.5)
    assert g.E.coeffs == (0.5, 0.5) and g.D.coeffs == (1,) and g.n == 1

    sup = superficial(1, Poly([1, 0.5]), 1)
    assert sup.E.coeffs == (1.5, 1.5) and sup.D.coeffs == (1, 0.5)


def test_canonical_parameter_guards():
    with pytest.raises(BadParameter):
        h_nu(-1, 0.5)
    with pytest.raises(BadParameter):
        h_nu(0, 1.0)
    with pytest.raises(BadParameter):
        geodesic(1.5)
    with pytest.raises(BadParameter):
        superficial(0.5, Poly([1, 0.5]), 1)
    with pytest.raises(BadParameter):
        superficial(1, Poly([-0.5, 1]), 1)


def test_representation_uniqueness_up_to_real_scalar():
    rng = random.Random(12)
    h = h_nu(1, 0.4)
    for _ in range(20):
        t = rng.choice((-1, 1)) * math.exp(rng.uniform(-2, 2))
        h2 = validate(t * h.E, t * h.D, h.n)
        for _ in range(32):
            lam = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            s1, p1 = h.eval(lam)
            s2, p2 = h2.eval(lam)
            assert s1 == pytest.approx(s2, abs=1e-10)
            assert p1 == pytest.approx(p2, abs=1e-10)


def test_unimodular_rescale_changes_h():
    # a complex (non-real) scalar on D alone changes p: pairs are only
    # equivalent under a shared real scalar
    h = h_nu(0, 0.5)
    c = random_unimodular(random.Random(3))
    h2 = validate(h.E, c * h.D, h.n)
    s1, p1 = h.eval(0.5)
    s2, p2 = h2.eval(0.5)
    assert abs(p1 - p2) > 1e-3 or abs(s1 - s2) > 1e-3


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: validate(Poly([1]), Poly([]), 1), ConditionFailed, r"\(iii\) D is the zero"),
        (lambda: validate(Poly([1]), Poly([1, 0, 0.5]), 1), ConditionFailed, r"\(i\) deg E"),
        (
            lambda: from_inner_pair((Poly([-1, 1]), Poly([1, -1]), 1), (Poly([1]), Poly([1]), 0)),
            NotInner,
            "phi: denominator vanishes on the closed disc",
        ),
        (lambda: superficial(1, Poly([]), 1), BadParameter, "p_den must be nonzero"),
    ],
    ids=["zero-D", "deg-D-over-n", "blaschke-pole-at-1", "zero-p_den"],
)
def test_degenerate_maps_raise(build, error, match):
    with pytest.raises(error, match=match) as caught:
        build()
    assert type(caught.value) is error
