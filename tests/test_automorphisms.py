"""Metamorphic relations from the automorphisms of the symmetrized bidisc.

For a disc automorphism m(z) = (z - a) / (1 - conj(a) z), the automorphism
tau_m(z1 + z2, z1 z2) = (m(z1) + m(z2), m(z1) m(z2)) of Gamma maps an inner map
h = (E/D, D~/D) to tau_m o h, whose numerator and denominator are exact in
the coefficients (ROADMAP item 9, first relation):

    E' = (1 + |a|^2) E - 2 a D - 2 conj(a) D~,    D' = D - conj(a) E + conj(a)^2 D~.

tau_m fixes the royal variety s^2 = 4p, so tau_m o h has the royal nodes, the
multiplicities and the type of h, and its royal polynomial is (1 - |a|^2)^2 R.
"""

import cmath
import random

from gammakit import (
    GammaKitError,
    conj_reciprocal,
    royal_polynomial,
    royal_profile,
    synthesize,
    validate,
)

from helpers import random_spec

MAPS = 100
A_MAX = 0.6


def _automorphism_pairs():
    """(h, a, tau_m o h) for the synthesizable maps among the first MAPS specs of seed 2001."""
    specs = random.Random(2001)
    points = random.Random(9)
    for _ in range(MAPS):
        spec = random_spec(specs)
        a = A_MAX * points.random() ** 0.5 * cmath.exp(2j * cmath.pi * points.random())
        try:
            h = synthesize(spec)
        except GammaKitError:
            continue
        d_tilde = conj_reciprocal(h.D, h.n)
        e = (1 + abs(a) ** 2) * h.E - 2 * a * h.D - 2 * a.conjugate() * d_tilde
        d = h.D - a.conjugate() * h.E + a.conjugate() ** 2 * d_tilde
        yield h, a, validate(e, d, h.n)


def test_gamma_automorphism_keeps_nodes_type_and_scales_the_royal_polynomial():
    pairs = list(_automorphism_pairs())
    assert len(pairs) >= 0.9 * MAPS
    for h, a, moved in pairs:
        before, after = royal_profile(h), royal_profile(moved)
        assert after.type_pair == before.type_pair, (a, before, after)
        assert sorted((nd.region.value, nd.multiplicity) for nd in after.nodes) == sorted(
            (nd.region.value, nd.multiplicity) for nd in before.nodes
        )
        for node in before.nodes:
            assert any(
                nd.region == node.region and nd.multiplicity == node.multiplicity
                and abs(nd.location - node.location) <= 1e-6
                for nd in after.nodes
            ), (a, node, after)

        # R = 4 D D~ - E^2 is read from the autocorrelations of D and E, so both sides
        # carry rounding relative to 4|D|^2 + |E|^2, which R's coefficients may cancel
        # far below (to 4e-6 of it in this pool).
        r, r_moved = royal_polynomial(h), royal_polynomial(moved)
        scale = (1 - abs(a) ** 2) ** 2
        width = max(len(r.coeffs), len(r_moved.coeffs))
        expected = [scale * c for c in r.padded(width)]
        residual = max(abs(x - y) for x, y in zip(r_moved.padded(width), expected))
        assert residual <= 1e-13 * (_energy(moved) + scale * _energy(h)), (a, residual)


def _energy(h):
    """4|D|^2 + |E|^2 at frequency 0: the sum of the squared coefficient moduli."""
    return 4 * sum(abs(c) ** 2 for c in h.D.coeffs) + sum(abs(c) ** 2 for c in h.E.coeffs)
