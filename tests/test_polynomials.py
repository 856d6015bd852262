import cmath
import functools
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gammakit import (
    DEFAULT_TOL,
    BadParameter,
    BadSpec,
    DegreeExceedsBound,
    GammaRegion,
    NodeRegion,
    PointOutOfRegion,
    Poly,
    RoyalNode,
    RoyalProfile,
    SynthesisSpec,
    TrigPoly,
    ZeroPolynomial,
    boundary_flatness,
    circle_extrema,
    classify_point,
    conj_reciprocal,
    eval_h,
    fejer_riesz,
    geodesic,
    h_nu,
    is_n_balanced,
    is_n_symmetric,
    l_factor,
    poly_from_roots,
    q_factor,
    roots_with_multiplicity,
    synthesize,
    to_trig_shifted,
    validate,
)
import gammakit.polynomials
import gammakit.royal
from gammakit.polynomials import (
    _CLUSTER_CAP, _ClusterContext, _components, _horner, _normalized,
)

from helpers import (
    BITWISE, COEFFS, circle_points, count_calls, random_poly, random_spec, same_bits,
    same_multiset,
)


def test_add_mul_eval():
    assert (Poly([1]) + Poly([0, 1])).coeffs == (1, 1)
    assert (Poly([-1, 1]) * Poly([1, 1])).coeffs == (-1, 0, 1)
    assert Poly([2, 0, 1])(1j) == pytest.approx(1.0)


def test_normalization_drops_only_exact_trailing_zeros():
    assert Poly([1, 2, 1e-15]).degree == 2
    assert Poly([1e300, 1e-290]).degree == 1
    for zero in (0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)):
        assert Poly([1, 2, zero]).coeffs == (1, 2)
    assert Poly([0.0, 0.0]).is_zero()
    assert Poly([1e-20, 1e-20]).degree == 1


def test_q_factor_keeps_a_tiny_sigma_in_its_top_coefficient():
    # Defect D: a relative trim once dropped the top -conj(sigma) and kept its mirror -sigma.
    q = q_factor(1e-13)
    assert q.degree == 2 and q.coeffs[2] == -1e-13


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


_BALANCED = Poly([0, 2, 4, 2])  # 4-symmetric, and lambda^-2 of it is nonnegative


@pytest.mark.parametrize(
    "call",
    [
        lambda n: conj_reciprocal(Poly([1, 2]), n),
        lambda n: is_n_symmetric(Poly([1, 2]), n),
        lambda n: to_trig_shifted(_BALANCED, n),
        lambda n: is_n_balanced(_BALANCED, n),
        lambda n: circle_extrema(to_trig_shifted(_BALANCED, 2), n),
    ],
    ids=["conj_reciprocal", "is_n_symmetric", "to_trig_shifted", "is_n_balanced", "circle_extrema"],
)
@pytest.mark.parametrize("bad", [True, 1.0, "1024", math.nan, math.inf], ids=repr)
def test_integer_parameters_reject_other_types(call, bad):
    with pytest.raises(BadParameter, match=f"must be an integer, not {re.escape(repr(bad))}$"):
        call(bad)


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


def test_small_simple_root_is_not_a_zero_at_the_origin():
    # Only an exactly zero coefficient counts as a root at 0; 1e-13 is a genuine root.
    roots = roots_with_multiplicity(poly_from_roots([(1e-13, 1), (0.5, 1), (2.0, 1)]))
    assert [m for _, m in roots] == [1, 1, 1]
    assert abs(roots[0][0] - 1e-13) < 1e-15
    assert roots_with_multiplicity(Poly([0, 0, 1, 2])) == ((-0.5 + 0j, 1), (0j, 2))


def test_small_double_root_stays_one_pair():
    roots = roots_with_multiplicity(poly_from_roots([(1e-7, 2), (0.5, 1), (2.0, 1)]))
    assert [m for _, m in roots] == [2, 1, 1]
    assert abs(roots[0][0] - 1e-7) < 1e-12


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        roots_with_multiplicity(Poly())


@pytest.mark.parametrize("keep", ["inside", "", "DISC", 1.0])
def test_roots_reject_an_unknown_side(keep):
    with pytest.raises(ValueError, match="keep must be None, 'disc' or 'outside'"):
        roots_with_multiplicity(Poly([1, -2.5, 1]), DEFAULT_TOL, keep)


@pytest.mark.parametrize(
    "solve, ratio",
    [
        (lambda: roots_with_multiplicity(Poly([1j, 2.2250738585e-313j])), "2.23e-313"),
        (lambda: roots_with_multiplicity(Poly([1, 0.5, 1e-310])), "1e-310"),
        (lambda: validate(Poly([0.2, 0.3, 0.2]), Poly([1, 0.5, 1e-310]), 2, strict=False),
         "1e-310"),
    ],
    ids=["subnormal-imaginary-lead", "subnormal-lead", "non-strict-validate"],
)
def test_companion_overflow_raises_a_named_error(solve, ratio):
    # The companion row -cs[-2::-1] / cs[-1] overflows to inf, which eigvals cannot take;
    # the error names the leading coefficient over the largest, and no warning is issued.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match=f"leading coefficient is {ratio} times the largest"):
            solve()


_HUGE = complex(1.5e308, 1.5e308)  # finite, but abs() overflows


@pytest.mark.parametrize(
    "call, expected, match",
    [
        (lambda: Poly([_HUGE]), BadParameter, "^polynomial coefficients must be finite"),
        (lambda: TrigPoly((_HUGE.conjugate(), 1, _HUGE), 1), BadParameter, "^trigonometric"),
        (lambda: TrigPoly.from_half_spectrum([1, _HUGE]), BadParameter, "^trigonometric"),
        # a_2 = 1.6e307 (1 + i) is finite; f'' doubles it and scales it by 4: modulus 1.8e308
        (lambda: circle_extrema(TrigPoly.from_half_spectrum([1, 0, _HUGE / 9.375]), 1024),
         BadParameter, "^polynomial coefficients must be finite"),
        (lambda: classify_point(_HUGE, 0), GammaRegion.OUTSIDE, None),
        (lambda: classify_point(0, _HUGE), GammaRegion.OUTSIDE, None),
        (lambda: classify_point(0, 1e200), GammaRegion.OUTSIDE, None),  # |p|^2 overflows
        (lambda: SynthesisSpec((), (1j,), (_HUGE,), 1, 1, 1), BadSpec, r"- 1\| = inf"),
        (lambda: SynthesisSpec((), (_HUGE,), (0.5,), 1, 1, 1), BadSpec, r"- 1\| = inf"),
        (lambda: SynthesisSpec((_HUGE,), (), (0.5, 0.2), 1, 1, 1), BadSpec, "open disc"),
        (lambda: SynthesisSpec((), (1j,), (0.5,), 1, 1, _HUGE), BadSpec, "^omega must be"),
        (lambda: q_factor(_HUGE), PointOutOfRegion, r"- 1\| = inf"),
        (lambda: geodesic(_HUGE), BadParameter, r"- 1\| = inf"),
        (lambda: eval_h(h_nu(0, 0.5), _HUGE), ValueError, r"- 1\| = inf"),
    ],
    ids=["poly", "trig", "half-spectrum", "derived", "classify-s", "classify-p",
         "classify-p-squared", "sigma", "tau", "alpha", "omega", "q-factor", "geodesic",
         "eval-h"],
)
def test_a_finite_point_whose_modulus_overflows_gets_the_documented_outcome(
    call, expected, match
):
    # abs(_HUGE) raises OverflowError; each entry point reads its modulus as inf instead.
    if isinstance(expected, GammaRegion):
        assert call() is expected
    else:
        with pytest.raises(expected, match=match):
            call()


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


def _pairwise_cluster(roots, ctx):
    """_cluster as it was before the sweep: the cap predicate on every pair."""
    poly = gammakit.polynomials
    ordered = sorted(roots, key=lambda w: (w.real, w.imag))
    accepted = []
    for part in _components(
        len(ordered), lambda i, j: abs(ordered[i] - ordered[j]) <= _CLUSTER_CAP
    ):
        if len(part) == 1:
            accepted.append((poly._polish_cluster(ctx, ordered[part[0]], 1), 1))
        else:
            members = [ordered[i] for i in sorted(part)]
            accepted.extend(poly._cluster_component(members, ctx))
    return accepted


def test_root_layer_matches_np_roots_and_pairwise_clustering(monkeypatch):
    raw = []
    cluster = gammakit.polynomials._cluster

    def recorded(roots, ctx):
        raw.append(roots)
        return cluster(roots, ctx)

    monkeypatch.setattr(gammakit.polynomials, "_cluster", recorded)
    rng = random.Random(29)
    for _ in range(60):
        layout = [(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), 1) for _ in range(8)]
        center = layout[0][0]
        for _ in range(rng.randint(0, 3)):
            layout.append((center + 1e-3 * rng.random(), rng.randint(1, 3)))
        p = poly_from_roots(layout, complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        roots_with_multiplicity(p)
        scale = p.max_coeff
        assert raw[-1] == np.roots([c / scale for c in reversed(p.coeffs)]).tolist()
        ctx = _ClusterContext(p, DEFAULT_TOL)

        def polished(walk):
            found = walk(raw[-1], ctx)
            return sorted(found, key=lambda item: (item[0].real, item[0].imag))

        assert polished(cluster) == polished(_pairwise_cluster)


def test_simple_root_polish_stops_at_convergence(monkeypatch):
    rng = random.Random(7)
    cases = [random_poly(rng, 16) for _ in range(20)]
    calls = count_calls(monkeypatch, "_horner", gammakit.polynomials._horner)
    found = [roots_with_multiplicity(p) for p in cases]
    monkeypatch.undo()
    assert all(m == 1 for roots in found for _, m in roots)
    # One |g| at the start, then g' and g per Newton step; 12 steps made 25.
    assert 16 * len(cases) <= len(calls) < 10 * 16 * len(cases)
    for p, roots in zip(cases, found):
        for z, _ in roots:
            assert abs(p(z)) <= 1e-10 * sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))


def test_newton_cannot_lower_the_residual_of_a_simple_root():
    # From each polished simple root, one more Newton step does not lower |p|: the polish
    # ran to convergence. Roots are 3-decimal points in the annulus 0.3 <= |z| <= 1.6.
    rng = random.Random(322)
    wanted = []
    while len(wanted) < 24:
        z = cmath.rect(rng.uniform(0.3, 1.6), rng.uniform(0, 2 * math.pi))
        z = complex(round(z.real, 3), round(z.imag, 3))
        if all(abs(z - w) > 0.05 for w in wanted):
            wanted.append(z)
    p = poly_from_roots([(z, 1) for z in wanted])
    dp = p.derivative()
    found = roots_with_multiplicity(p)
    assert [m for _, m in found] == [1] * 24
    for z, _ in found:
        assert not abs(p(z - p(z) / dp(z))) < abs(p(z)), z


@pytest.mark.parametrize(
    "roots",
    [[(0.5, -1)], [(0.5, 1.5)], [(0.5, True)], [(0.5, 1), (2, False)]],
    ids=["negative", "float", "true", "false"],
)
def test_poly_from_roots_requires_nonnegative_integer_multiplicities(roots):
    with pytest.raises(BadParameter, match="multiplicity must be a nonnegative integer"):
        poly_from_roots(roots)
    assert poly_from_roots([(0.5, 0), (2.0, 1)]).coeffs == (-2, 1)


@functools.cache
def _pool_polys():
    """R and E of the first 12 maps synthesized from random_spec(Random(20240214))."""
    rng = random.Random(20240214)
    maps = [synthesize(random_spec(rng)) for _ in range(12)]
    return [f for h in maps for f in (h.royal, h.E)]


_LAYOUTS = st.lists(
    st.tuples(st.complex_numbers(max_magnitude=3.0), st.integers(1, 3)), min_size=1, max_size=8
)


@BITWISE
@given(
    st.lists(COEFFS, min_size=2, max_size=12).map(Poly)
    | _LAYOUTS.map(poly_from_roots)
    | st.integers(0, 23).map(lambda i: _pool_polys()[i]),
    st.sampled_from([DEFAULT_TOL, DEFAULT_TOL.with_overrides(eps_circle=1e-3, eps_root=1e-6)]),
)
def test_one_sided_roots_keep_their_side_bit_for_bit(f, tol):
    # A caller keeping one side gets that side's pairs bit for bit and in order; an
    # isolated root far out on the other side is its raw eigenvalue, every other root as is.
    assume(f.degree >= 1)
    full = roots_with_multiplicity(f, tol)
    raw = np.roots([c / f.max_coeff for c in reversed(f.coeffs)]).tolist()
    reach = max(tol.eps_circle, 1e-4)
    for keep, side in (("disc", 1.0), ("outside", -1.0)):
        found = roots_with_multiplicity(f, tol, keep)
        kept = [(z, m) for z, m in found if side * (abs(z) - 1.0) <= reach]
        assert repr(kept) == repr([(z, m) for z, m in full if side * (abs(z) - 1.0) <= reach])
        assert sorted(m for _, m in found) == sorted(m for _, m in full)
        for z, m in (p for p in found if side * (abs(p[0]) - 1.0) > reach):
            isolated = m == 1 and sum(abs(w - z) <= _CLUSTER_CAP for w in raw) == 1
            if isolated and side * (abs(z) - 1.0) > reach:
                assert any(same_bits(z, w) for w in raw)
            else:
                assert repr((z, m)) in map(repr, full)


def test_no_polish_carries_a_root_across_the_circle_band():
    # Under a leading coefficient of 7.6e-101 the raw roots of 1 + 1.5 z + z^2 come back as
    # -1.5 and 0, not on the circle. Newton from -1.5 lowers |f| on its way to -0.83, inside
    # the circle, so that polish returns its start, as keep="disc" does, which leaves
    # -1.5 raw: both report the same kept side.
    f = Poly([1j, 1.5j, 1j, 7.645279415111721e-101j])
    full = roots_with_multiplicity(f)
    assert (-1.5 + 0j, 1) in full
    assert roots_with_multiplicity(f, keep="disc") == full


def test_nonfinite_coefficients_rejected():
    for bad in ([1, math.inf, 1], [1, math.nan], [complex(0.5, -math.inf), 1]):
        with pytest.raises(BadParameter):
            Poly(bad)
    with pytest.raises(BadParameter):
        roots_with_multiplicity(Poly([1, math.nan, 1]))
    for half in ([2, math.nan], [math.inf, 1]):
        with pytest.raises(BadParameter):
            fejer_riesz(TrigPoly.from_half_spectrum(half))
    # Finite coefficients whose sum overflows are still valid.
    assert Poly([1e308, 1e308]).degree == 1


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


def _per_factor_poly_from_roots(roots, lead=1.0):
    """The expansion poly_from_roots made before it ran on a plain list."""
    acc = Poly([complex(lead)])
    for z, m in roots:
        for _ in range(m):
            acc = acc * Poly([-z, 1.0])
    return acc


def test_poly_from_roots_matches_per_factor_product():
    rng = random.Random(23)
    for _ in range(200):
        roots = []
        budget = rng.randint(1, 32)
        while budget:
            m = rng.randint(1, min(3, budget))
            budget -= m
            z = cmath.rect(2.0 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            roots.append((z, m))
        lead = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        assert poly_from_roots(roots, lead) == _per_factor_poly_from_roots(roots, lead)


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


def test_zero_polynomial_at_array_points():
    values = Poly([])(np.zeros(3))
    assert isinstance(values, np.ndarray) and values.dtype == complex and values.shape == (3,)
    assert not values.any()
    assert Poly([])(np.zeros((2, 2))).shape == (2, 2)
    assert same_bits(Poly([])(0.5), 0j)


# -- bit-for-bit properties of the coefficient-list hot paths ------------------------


def _reference_horner(cs, z):
    """``Poly.__call__`` before it shared ``_horner``: the reference arithmetic."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _reference_product(p: Poly, q: Poly) -> Poly:
    """``Poly.__mul__`` before it shared ``_convolve``: the reference formula."""
    if p.is_zero() or q.is_zero():
        return Poly()
    out = [0j] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


_TRAILING_ZEROS = st.lists(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j]))
_POINTS = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@BITWISE
@given(st.lists(COEFFS, max_size=7), _TRAILING_ZEROS, _POINTS, st.lists(_POINTS, max_size=4))
def test_horner_on_lists_matches_poly_bit_for_bit(cs, zeros, z, zs):
    cs = cs + zeros
    kept = _normalized(cs)
    poly = Poly(cs)
    assert same_bits(kept, poly.coeffs)
    for point in (z, np.array(zs, dtype=complex)):
        value = _horner(kept, point)
        assert same_bits(value, poly(point))
        if kept:
            assert same_bits(value, _reference_horner(poly.coeffs, point))
        else:
            assert same_bits(value, np.zeros_like(point))


@BITWISE
@given(st.lists(COEFFS, max_size=6), _TRAILING_ZEROS, st.lists(COEFFS, max_size=6))
def test_product_matches_reference_formula(a, zeros, b):
    p, q = Poly(a + zeros), Poly(b)
    assert same_bits((p * q).coeffs, _reference_product(p, q).coeffs)


@BITWISE
@given(st.lists(COEFFS, max_size=8))
def test_cluster_ladder_matches_poly_derivatives(cs):
    ladder = [Poly(cs)]
    while ladder[-1].degree > 0:
        ladder.append(ladder[-1].derivative())
    ctx = _ClusterContext(ladder[0], DEFAULT_TOL)
    for j, rung in enumerate(ladder):
        assert same_bits(ctx.deriv(j), rung.coeffs)
    assert ctx.deriv(len(ladder)) == []


@BITWISE
@given(st.lists(COEFFS, min_size=1, max_size=6), st.data())
def test_non_finite_coefficients_still_raise(cs, data):
    k = data.draw(st.integers(0, len(cs) - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    cs[k] = data.draw(st.sampled_from([complex(bad, cs[k].imag), complex(cs[k].real, bad)]))
    with pytest.raises(BadParameter, match="polynomial coefficients must be finite"):
        Poly(cs)
    with pytest.raises(BadParameter, match="polynomial coefficients must be finite"):
        _normalized(cs)


def _flatness_past_the_cap(monkeypatch):
    # The order is 2 nu for every nu. No map reaches nu = 7: a circle node of multiplicity 4
    # or more reads as disc nodes (test_royal.py's high-order circle node), so the profile
    # is replaced.
    fake = RoyalProfile(nodes=(RoyalNode(-1 + 0j, 7, NodeRegion.CIRCLE),), n=7, k=7)
    monkeypatch.setattr(gammakit.royal, "royal_profile", lambda _: fake)
    return boundary_flatness(h_nu(0, 0.5), -1)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda _: conj_reciprocal(Poly([1]), -1), DegreeExceedsBound),
        (lambda _: roots_with_multiplicity(Poly([3])), ()),
        (lambda _: TrigPoly.from_half_spectrum([1, 0.5]).coeff(5), 0j),
        (lambda _: is_n_balanced(Poly([1, 2]), 1), False),
        (_flatness_past_the_cap, 14),
    ],
    ids=["negative-bound", "constant-roots", "coeff-past-n", "unbalanced", "flatness-cap"],
)
def test_edge_inputs_of_polynomials_spectral_and_royal(monkeypatch, call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(monkeypatch)
    else:
        found = call(monkeypatch)
        assert found == expected and type(found) is type(expected)
