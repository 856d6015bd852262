import cmath
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gammakit import (
    BadSpec,
    DifferentSecondComponent,
    ExtremeNoWitness,
    Poly,
    SynthesisSpec,
    build_re,
    convex_combine,
    geodesic,
    h_nu,
    is_n_balanced,
    is_n_symmetric,
    is_s_extreme,
    recover_spec,
    roots_with_multiplicity,
    royal_polynomial,
    royal_profile,
    superficial,
    synthesize,
    validate,
    witness_non_extreme,
)

import gammakit.spectral
import gammakit.synthesis
from helpers import circle_points, count_calls, random_spec, same_multiset


def _spec(alphas=(), taus=(), sigmas=(), t_plus=1.0, t=1.0, omega=1.0):
    return SynthesisSpec(
        alphas=tuple(alphas),
        taus=tuple(taus),
        sigmas=tuple(sigmas),
        t_plus=t_plus,
        t=t,
        omega=omega,
    )


def test_spec_invariants():
    with pytest.raises(BadSpec):
        _spec(sigmas=[0, 0])  # 2 k0 + k1 = 0 != 2
    with pytest.raises(BadSpec):
        _spec(taus=[1], sigmas=[1])  # sigma collides with tau
    with pytest.raises(BadSpec):
        _spec(alphas=[1.0], sigmas=[0, 0])  # alpha must be interior
    with pytest.raises(BadSpec):
        _spec(taus=[1], sigmas=[0], t_plus=-1)
    with pytest.raises(BadSpec):
        _spec(taus=[1], sigmas=[0], t=0)
    with pytest.raises(BadSpec):
        _spec(taus=[0.5], sigmas=[0])  # tau off the circle
    valid = dict(taus=[1], sigmas=[0])
    for bad in (math.nan, math.inf, -math.inf):
        for fields in (
            dict(valid, t=bad),
            dict(valid, t_plus=bad),
            dict(valid, omega=complex(1.0, bad)),
            dict(valid, taus=[bad]),
            dict(valid, sigmas=[bad]),
            dict(alphas=[bad], sigmas=[0, 0]),
        ):
            with pytest.raises(BadSpec):
                _spec(**fields)


@pytest.mark.parametrize(
    "fields, expected",
    [
        (dict(t=complex(1.5e308, 1.5e308)), "t must be"),
        (dict(t=0.5j), "t must be"),
        (dict(t=0.5 + 0.1j), "t must be"),
        (dict(t="0.5"), "t must be"),
        (dict(t_plus=1j), "t_plus must be"),
        (dict(t_plus=1 + 1e-3j), "t_plus must be"),
        (dict(t_plus="1.2"), "t_plus must be"),
        (dict(t_plus=None), "t_plus must be"),
        (dict(t=3, t_plus=2), (2.0, 3.0)),
        (dict(t=-0.1, t_plus=1.2), (1.2, -0.1)),
        (dict(t=np.float32(0.1), t_plus=np.int64(7)), (7.0, float(np.float32(0.1)))),
        (dict(t=Fraction(1, 3), t_plus=Decimal("0.1")), (0.1, 1 / 3)),
        (dict(t=-1.5 + 0j, t_plus=np.float64(2.5)), (2.5, -1.5)),
    ],
    ids=["huge-complex-t", "imaginary-t", "complex-t", "str-t", "imaginary-t-plus",
         "complex-t-plus", "str-t-plus", "none-t-plus", "ints", "floats", "numpy",
         "fraction-decimal", "zero-imaginary-part"],
)
def test_spec_scalars_are_real_or_bad_spec(fields, expected):
    if isinstance(expected, str):
        with pytest.raises(BadSpec, match=f"^{expected}"):
            _spec(taus=[1], sigmas=[0], **fields)
    else:
        spec = _spec(taus=[1], sigmas=[0], **fields)
        assert (spec.t_plus, spec.t) == expected
        assert type(spec.t_plus) is float and type(spec.t) is float


def test_build_re_examples():
    r, e = build_re(_spec(taus=[1], sigmas=[0]))
    assert r.coeffs == (0, 1)
    assert max(abs(a - b) for a, b in zip(e.padded(2), (-1j, 1j))) < 1e-15

    r, _ = build_re(_spec(taus=[1], sigmas=[-1], t_plus=1.0))
    assert r.coeffs == (1, 2, 1)

    _, e = build_re(_spec(alphas=[0], sigmas=[0.3, -0.2], t=2.0))
    assert e.coeffs == (0, 2)


def test_build_re_structure():
    rng = random.Random(50)
    for _ in range(10):
        spec = random_spec(rng, n_max=8)
        r, e = build_re(spec)
        assert is_n_balanced(r, spec.n)
        assert is_n_symmetric(e, spec.n)


def test_synthesize_hand_example():
    spec = _spec(taus=[1], sigmas=[0], t=1 / math.sqrt(2))
    h = synthesize(spec)
    expected = ((1 + math.sqrt(3)) / 4, (1 - math.sqrt(3)) / 4)
    assert max(abs(a - b) for a, b in zip(h.D.padded(2), expected)) < 1e-12
    profile = royal_profile(h)
    assert profile.type_pair == (1, 0)
    assert abs(profile.nodes[0].location) < 1e-12
    ((z, m),) = roots_with_multiplicity(h.E)
    assert m == 1 and abs(z - 1) < 1e-12


def test_synthesize_matches_h_nu_profile():
    nodes = [0, -1, cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)]
    spec = _spec(alphas=[0], taus=[cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)],
                 sigmas=nodes, t_plus=1.0, t=1.0)
    h = synthesize(spec)
    profile = royal_profile(h)
    reference = royal_profile(h_nu(1, 0.5))
    assert profile.type_pair == reference.type_pair
    assert same_multiset(
        [nd.location for nd in profile.nodes],
        [nd.location for nd in reference.nodes],
        1e-8,
    )


def test_synthesize_residual_identity():
    # lambda^{-n} R + |E|^2 = 4 |D|^2 on the circle
    rng = random.Random(123)
    for _ in range(10):
        spec = random_spec(rng, n_max=8)
        h = synthesize(spec)
        r, e = build_re(spec)
        n = spec.n
        scale = max(abs(c) for c in (4.0 * (h.D * h.d_reflected)).coeffs)
        for lam in circle_points(64):
            lhs = (r(lam) / lam**n).real + abs(e(lam)) ** 2
            rhs = 4 * abs(h.D(lam)) ** 2
            assert abs(lhs - rhs) <= 1e-10 * (1 + scale)


def test_synthesize_royal_polynomial_scaling():
    rng = random.Random(77)
    spec = random_spec(rng, n_max=6)
    h = synthesize(spec)
    r_target, _ = build_re(spec)
    r_actual = royal_polynomial(h)
    j = max(range(len(r_target.coeffs)), key=lambda i: abs(r_target.coeffs[i]))
    ratio = r_actual.coeff(j) / r_target.coeffs[j]
    assert ratio.real > 0 and abs(ratio.imag) < 1e-9 * abs(ratio)
    width = max(len(r_target.coeffs), len(r_actual.coeffs))
    gap = max(
        abs(a * ratio - b)
        for a, b in zip(r_target.padded(width), r_actual.padded(width))
    )
    assert gap <= 1e-8 * (1 + r_actual.max_coeff)


def test_synthesize_two_parameter_family():
    # (t_plus, t, omega) and (c^2 t_plus, c t, omega) give the same h up to
    # the real-scalar representation equivalence
    base = _spec(taus=[1], sigmas=[0], t=0.7, omega=cmath.exp(0.3j))
    c = 1.8
    rescaled = _spec(taus=[1], sigmas=[0], t_plus=c * c, t=c * 0.7, omega=cmath.exp(0.3j))
    h1 = synthesize(base)
    h2 = synthesize(rescaled)
    ratio = h2.D.coeffs[0] / h1.D.coeffs[0]
    assert abs(ratio.imag) < 1e-12 * abs(ratio)
    for a, b in zip(h1.E.padded(2), h2.E.padded(2)):
        assert abs(a * ratio - b) < 1e-12
    for a, b in zip(h1.D.padded(2), h2.D.padded(2)):
        assert abs(a * ratio - b) < 1e-12


def test_recover_spec_h0():
    rec = recover_spec(h_nu(0, 0.5))
    assert same_multiset(rec.sigmas, [0, -1], 1e-8)
    assert same_multiset(rec.alphas, [0], 1e-10)
    assert rec.taus == ()
    assert rec.t == pytest.approx(1.0)
    assert rec.t_plus == pytest.approx(2.0)


def test_recover_spec_geodesic_i():
    rec = recover_spec(geodesic(1j))
    assert same_multiset(rec.sigmas, [-1], 1e-8)
    assert same_multiset(rec.taus, [1], 1e-10)
    assert rec.alphas == ()
    assert abs(rec.t) == pytest.approx(1.0)


def test_recover_spec_keeps_a_tiny_disc_sigma():
    # Defect D: a relative trim dropped q_factor(1e-13)'s top coefficient but kept its
    # mirror, and sigma came back as 5.0e-14.
    spec = SynthesisSpec(alphas=(), taus=(1j,), sigmas=(1e-13,), t_plus=1.0, t=1.0, omega=1.0)
    (sigma,) = recover_spec(synthesize(spec)).sigmas
    assert abs(sigma - 1e-13) <= 1e-15


def _assert_resynthesis_matches(h, rec):
    """synthesize(rec) equals h up to a nonzero real scalar."""
    h2 = synthesize(rec)
    width = max(h.n + 1, 1)
    ratio = None
    for a, b in zip(h.D.padded(width), h2.D.padded(width)):
        if abs(a) > 0.1 * h.D.max_coeff:
            ratio = b / a
            break
    assert ratio is not None and abs(ratio.imag) < 1e-8 * abs(ratio)
    for a, b in zip(h.E.padded(width), h2.E.padded(width)):
        assert abs(a * ratio - b) <= 1e-7 * (1 + h.E.max_coeff)
    for a, b in zip(h.D.padded(width), h2.D.padded(width)):
        assert abs(a * ratio - b) <= 1e-7 * (1 + h.D.max_coeff)


def test_recover_round_trip_random():
    rng = random.Random(2)
    for _ in range(30):
        spec = random_spec(rng, n_max=8)
        h = synthesize(spec)
        rec = recover_spec(h)
        assert same_multiset(rec.sigmas, spec.sigmas, 1e-6)
        assert same_multiset(rec.alphas, spec.alphas, 1e-6)
        assert same_multiset(rec.taus, spec.taus, 1e-6)
        assert abs(rec.omega - spec.omega) <= 1e-15
        _assert_resynthesis_matches(h, rec)


def test_recover_negated_representation():
    # (-E, -D) is the same map; the recovered spec absorbs the sign into t and omega.
    rng = random.Random(5)
    for _ in range(10):
        spec = random_spec(rng, n_max=8)
        h = synthesize(spec)
        negated = validate(-1.0 * h.E, -1.0 * h.D, h.n)
        rec = recover_spec(negated)
        assert rec.t == pytest.approx(-spec.t, rel=1e-9)
        assert abs(rec.omega + spec.omega) <= 1e-15
        _assert_resynthesis_matches(negated, rec)


def test_recover_spec_makes_no_spectral_factorization(monkeypatch):
    calls = count_calls(monkeypatch, "fejer_riesz", gammakit.spectral.fejer_riesz)
    h = synthesize(_spec(alphas=[0.3], sigmas=[0.5, cmath.exp(0.8j)], t_plus=2.0, t=1.5))
    assert len(calls) == 1
    recover_spec(h)
    assert len(calls) == 1


def test_recover_spec_of_a_reduced_converse_map():
    # (E, D) = ((1 + lambda)^2 / 2, 1 + lambda) at n = 2 reduces to ((1 + lambda) / 2, 1) at
    # n = 1, so recovery sees one node and the s-zero -1, and its spec synthesizes back to h.
    # (test_high_degree.py pins the miscounted-node guard.)
    h = validate(Poly([0.5, 1, 0.5]), Poly([1, 1]), 2, strict=False)
    spec = recover_spec(h)
    assert spec.taus == (-1,) and spec.alphas == () and len(spec.sigmas) == 1
    assert abs(spec.sigmas[0] - (2 - math.sqrt(3)) ** 2) < 1e-12
    back = synthesize(spec)
    for k in range(64):
        lam = cmath.rect(0.7, 2 * math.pi * k / 64)
        assert max(abs(a - b) for a, b in zip(back.eval(lam), h.eval(lam))) < 1e-15


def test_recover_spec_repeated_nodes():
    w = cmath.exp(1j * 0.8)
    spec = _spec(alphas=[0.3], taus=(), sigmas=[w, w], t_plus=2.0, t=1.5)
    h = synthesize(spec)
    rec = recover_spec(h)
    assert same_multiset(rec.sigmas, [w, w], 1e-7)
    assert same_multiset(rec.alphas, [0.3], 1e-8)


def test_witness_h0():
    h = h_nu(0, 0.5)
    t, hp, hm = witness_non_extreme(h)
    assert t > 0
    rng = random.Random(4)
    for _ in range(64):
        lam = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        s, p = h.eval(lam)
        sp, pp = hp.eval(lam)
        sm, pm = hm.eval(lam)
        assert abs(0.5 * (sp + sm) - s) < 1e-10
        assert abs(0.5 * (pp + pm) - p) < 1e-10
    gap = max(abs(a - b) for a, b in zip(hp.E.padded(3), hm.E.padded(3)))
    assert gap > 1e-6


def test_witness_perturbation_is_symmetric():
    h = h_nu(0, 0.5)
    _, hp, _ = witness_non_extreme(h)
    assert is_n_symmetric(hp.E, h.n)


def test_witness_geodesic_scaling_family():
    h = geodesic(0.5)
    t, hp, hm = witness_non_extreme(h)
    # direction is E itself: h_pm = ((1 pm t) s, p)
    for a, b in zip(hp.E.padded(2), h.E.padded(2)):
        assert abs(a - (1 + t) * b) < 1e-12


def test_witness_odd_degree_with_circle_node():
    spec = _spec(alphas=[0.4], taus=[1j], sigmas=[-1, 0.2, 0.3j], t_plus=1.2, t=0.8)
    h = synthesize(spec)
    profile = royal_profile(h)
    assert profile.type_pair == (3, 1)  # 2k = 2 <= 3 = n
    t, hp, hm = witness_non_extreme(h)
    lam = 0.4 - 0.2j
    s, p = h.eval(lam)
    sp, _ = hp.eval(lam)
    sm, _ = hm.eval(lam)
    assert abs(0.5 * (sp + sm) - s) < 1e-10


def test_witness_checks_shared_denominator_once(monkeypatch):
    spec = _spec(alphas=[0.4], taus=[1j], sigmas=[-1, 0.2, 0.3j], t_plus=1.2, t=0.8)
    h = synthesize(spec)
    royal_profile(h)  # memoized on h, as recover_spec leaves it
    extrema = count_calls(monkeypatch, "circle_extrema", gammakit.spectral.circle_extrema)
    powers = count_calls(
        monkeypatch, "to_trig_modulus_squared", gammakit.spectral.to_trig_modulus_squared
    )
    roots = count_calls(monkeypatch, "roots_with_multiplicity", roots_with_multiplicity)
    _, h_plus, h_minus = witness_non_extreme(h)
    # Trials run on the pencil of h's cached gap, and h+- take (iv) from the trial that
    # accepted t, so neither gap is built or scanned again.
    assert not extrema
    assert len(powers) == 1  # g
    assert all(args[0] != h.D for args in powers)
    assert not roots
    monkeypatch.undo()
    for found in (h_plus, h_minus):
        assert found == validate(found.E, h.D, h.n)


def test_witness_rejects_extreme():
    with pytest.raises(ExtremeNoWitness):
        witness_non_extreme(h_nu(1, 0.5))
    with pytest.raises(ExtremeNoWitness):
        witness_non_extreme(geodesic(1j))


def test_witness_zero_numerator():
    # s = 0 has no direction along E; the fallback direction D + D~ applies
    from gammakit import validate

    h = validate(Poly([]), Poly([1]), 1)
    t, hp, hm = witness_non_extreme(h)
    assert t > 0
    s_plus, p_plus = hp.eval(0.3)
    s_minus, p_minus = hm.eval(0.3)
    assert abs(0.5 * (s_plus + s_minus)) < 1e-12
    assert p_plus == pytest.approx(0.3) and p_minus == pytest.approx(0.3)


def test_witness_matches_extremity_both_ways():
    rng = random.Random(31)
    checked_extreme = 0
    checked_plain = 0
    for _ in range(12):
        spec = random_spec(rng, n_max=6)
        h = synthesize(spec)
        profile = royal_profile(h)
        if 2 * profile.k > profile.n:
            checked_extreme += 1
            with pytest.raises(ExtremeNoWitness):
                witness_non_extreme(h)
        else:
            checked_plain += 1
            t, hp, hm = witness_non_extreme(h)
            mid = convex_combine(hp, hm, 0.5)
            width = h.n + 1
            assert max(
                abs(a - b) for a, b in zip(mid.E.padded(width), h.E.padded(width))
            ) < 1e-9 * (1 + h.E.max_coeff)
    assert checked_extreme and checked_plain


def test_convex_combine_idempotent():
    h = h_nu(0, 0.5)
    same = convex_combine(h, h, 0.3)
    assert same.E.coeffs == h.E.coeffs and same.D.coeffs == h.D.coeffs


def test_convex_combine_rescaled_denominator():
    from gammakit import validate

    h = h_nu(0, 0.5)
    rescaled = validate(-2.0 * h.E, -2.0 * h.D, h.n)
    mid = convex_combine(h, rescaled, 0.5)
    assert mid.n == h.n
    lam = 0.2 + 0.1j
    assert mid.eval(lam)[0] == pytest.approx(h.eval(lam)[0], abs=1e-12)


@pytest.mark.parametrize("strict", [True, False])
def test_convex_combine_checks_shared_denominator_once(monkeypatch, strict):
    h = validate(Poly([0.5, 1.0, 0.5]), Poly([1.0, 1.0]), 2, strict=False)  # reduced, n = 1
    if strict:
        h = synthesize(_spec(alphas=[0.4], taus=[1j], sigmas=[-1, 0.2, 0.3j], t_plus=1.2))
    _, h_plus, h_minus = witness_non_extreme(h)
    roots = count_calls(monkeypatch, "roots_with_multiplicity", roots_with_multiplicity)
    mid = convex_combine(h_plus, h_minus, 0.5)
    assert not roots
    monkeypatch.undo()
    expected = validate(0.5 * h_plus.E + 0.5 * h_minus.E, h.D, h.n)
    assert mid == expected and mid.n == (3 if strict else 1)


def test_convex_combine_rejects_different_p():
    with pytest.raises(DifferentSecondComponent):
        convex_combine(h_nu(0, 0.5), geodesic(0.5), 0.5)
    with pytest.raises(DifferentSecondComponent):
        convex_combine(h_nu(0, 0.5), h_nu(0, 0.25), 0.5)


def test_superficial_midpoint_type():
    den = Poly([1, 0.5])
    h1 = superficial(1, den, 1)
    h2 = superficial(1j, den, 1)
    mid = convex_combine(h1, h2, 0.5)
    profile = royal_profile(mid)
    assert profile.type_pair == (1, 0)
    assert not is_s_extreme(mid)


def _combine_across_denominators():
    h = h_nu(1, 0.5)
    return convex_combine(h, validate(h.E, 1j * h.D, h.n), 0.5)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: _spec(sigmas=()), BadSpec, "at least one royal node"),
        (lambda: recover_spec(validate(Poly([]), Poly([1]), 1)), BadSpec, "s vanishes"),
        (lambda: convex_combine(h_nu(1, 0.5), h_nu(1, 0.5), 2.0), BadSpec, "weight"),
        (_combine_across_denominators, DifferentSecondComponent, "denominators"),
    ],
    ids=["no-sigma", "zero-s", "weight-2", "rotated-D"],
)
def test_degenerate_specs_and_combinations_raise(build, error, match):
    with pytest.raises(error, match=match) as caught:
        build()
    assert type(caught.value) is error
