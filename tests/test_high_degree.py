"""High-degree maps: a rounded true map at n = 32 and the degree sweep.

The sweep (``helpers.degree_sweep``) draws ``random_spec``'s recipe at a fixed
degree. From n = 16 up the pipeline does not yet always get the answer right
(ROADMAP item 12); a wrong answer must at least raise a named error.
"""

import json
from pathlib import Path

import pytest

from gammakit import (
    GammaKitError,
    parse_gamma_inner,
    parse_spec,
    recover_spec,
    royal_profile,
    synthesize,
)

from helpers import circle_count, degree_sweep, same_multiset, sweep_outcome

DATA = Path(__file__).parent / "data"


def test_rounded_true_map_at_degree_32_recovers_every_sigma():
    """Draw 1 of ``degree_sweep(32)``, synthesized exactly and rounded to doubles.

    The data files are ``serialize`` of the spec and of its map, made once
    with mpmath at 50 digits (no test runs mpmath at this degree)::

        import mpmath as mp
        from gammakit import Poly, serialize, validate

        mp.mp.dps = 50
        spec = degree_sweep(32, 2)[1][1]

        def mul(a, b):
            out = [mp.mpc(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        r, e = [mp.mpc(spec.t_plus)], [mp.mpc(spec.t)]
        for s in map(mp.mpc, spec.sigmas):
            r = mul(r, [-s, 1 + abs(s) ** 2, -mp.conj(s)])
        for a in map(mp.mpc, spec.alphas):
            e = mul(e, [-a, 1 + abs(a) ** 2, -mp.conj(a)])
        for u in map(mp.mpc, spec.taus):
            c = 1j * mp.exp(-0.5j * (mp.arg(u) % (2 * mp.pi)))
            e = mul(e, [-c * u, c])
        p = [x + y for x, y in zip(r, mul(e, e))]  # lambda^n f, of degree 2n
        outer = [z for z in mp.polyroots(p[::-1], maxsteps=200, extraprec=200) if abs(z) > 1]
        d = [mp.sqrt(abs(p[-1]) / mp.fprod(map(abs, outer)))]
        for z in outer:
            d = mul(d, [-z, 1])
        d = [c * mp.conj(d[0]) / abs(d[0]) * mp.conj(mp.mpc(spec.omega)) / 2 for c in d]
        h = validate(Poly(map(complex, e)), Poly(map(complex, d)), 32)
        (DATA / "true_map_n32.json").write_text(serialize(h))
        (DATA / "true_map_n32_spec.json").write_text(serialize(spec))

    The exact R = 4 D D~ - E^2 of these doubles has its disc zeros within
    about 1e-10 of the spec's sigmas. Relative-to-peak zero tests on R's
    coefficients once erased the small ones and missed sigma by 0.1 or more.
    """
    h = parse_gamma_inner((DATA / "true_map_n32.json").read_text())
    spec = parse_spec((DATA / "true_map_n32_spec.json").read_text())
    assert spec == degree_sweep(32, 2)[1][1]
    assert royal_profile(h).type_pair == (32, circle_count(spec))
    assert same_multiset(recover_spec(h).sigmas, spec.sigmas, 1e-6)


def test_spec_of_the_true_map_at_degree_32_synthesizes_in_doubles():
    # A relative trim once dropped R's top coefficient (6.9e-13 of its peak) but not its
    # mirror, the constant term, and a sigma came back 0.048 off.
    assert sweep_outcome(parse_spec((DATA / "true_map_n32_spec.json").read_text())) == "right"


# Miss allowed per draw. Each draw once returned the spec's type with a sigma 0.27 to 0.37
# from every found one, and later raised instead. Since polynomials drop only exact zeros,
# both n = 32 draws are right; the n = 48 draw misses one sigma by 2.1e-5, which
# test_high_degree_sweep_draw_48_8_is_right_or_raises holds against 1e-6.
_SWEEP_MISS = {(32, 10): 1e-6, (32, 18): 1e-6, (48, 8): 1e-4}


@pytest.mark.parametrize("n, draw", list(_SWEEP_MISS))
def test_high_degree_sweep_draw_raises_instead_of_missing_sigma(n, draw):
    spec = dict(degree_sweep(n, draw + 1))[draw]
    h = synthesize(spec)
    assert royal_profile(h).type_pair == (n, circle_count(spec))
    assert same_multiset(recover_spec(h).sigmas, spec.sigmas, _SWEEP_MISS[n, draw])


def test_recover_spec_names_a_miscounted_node_at_degree_32():
    # degree_sweep(32) draw 5 has 11 circle sigmas, but its profile reads type (31, 9):
    # recovery names the node count, not the spec's invariant 2 k0 + k1 = n.
    h = synthesize(dict(degree_sweep(32, 6))[5])
    with pytest.raises(GammaKitError, match="counts 31 nodes but the map has degree 32"):
        recover_spec(h)


@pytest.mark.parametrize(
    "n, draw, outcome", [(16, 7, "raised"), (48, 1, "right"), (64, 17, "raised")]
)
def test_simple_roots_polished_to_convergence_settle_three_sweep_draws(n, draw, outcome):
    # Each draw came back silently wrong while a bound on the Newton step stopped some
    # simple royal nodes short of convergence. Polished to convergence, (16, 7) and
    # (64, 17) raise a named error, and (48, 1) is right.
    assert sweep_outcome(dict(degree_sweep(n, draw + 1))[draw]) == outcome


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 15): degree_sweep(48) draw 8 returns its type (48, 0) "
    "with a sigma 2.1e-5 off, and no error bar says so",
)
def test_high_degree_sweep_draw_48_8_is_right_or_raises():
    assert sweep_outcome(dict(degree_sweep(48, 9))[8]) != "silent"


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 12): from n = 16 up, synthesize can lose the "
    "royal nodes, and some answers come back wrong without an error",
)
def test_degree_sweep_is_right_or_raises():
    for n in (16, 24, 32, 48):
        for draw, spec in degree_sweep(n):
            assert sweep_outcome(spec) != "silent", (n, draw)
