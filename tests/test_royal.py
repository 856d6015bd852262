import cmath
import dataclasses
import inspect
import math
import random
import sys

import pytest

import gammakit.royal
from gammakit import (
    ExtremeNoWitness,
    GammaKitError,
    NodeRegion,
    OddCircleZero,
    OrderOverflow,
    Poly,
    RoyalNode,
    RoyalProfile,
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

from helpers import random_spec, random_unimodular, same_multiset


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
    # (2m, m^2) for a Moebius m: R is only rounding, each coefficient at most eps_trim x peak
    a = 0.3 + 0.2j
    mobius = (Poly([-a, 1]), Poly([1, -a.conjugate()]), 1)
    with pytest.raises(RoyalVariety):
        royal_polynomial(from_inner_pair(mobius, mobius))


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


@pytest.mark.parametrize("nu", range(7))
@pytest.mark.parametrize("r", (0.1, 0.3, 0.5, 0.7, 0.9))
def test_h_nu_circle_nodes(nu, r):
    # R = 4 r lambda (lambda^{2 nu + 1} + 1)^2: double zeros at the (2 nu + 1)-th roots of -1.
    profile = royal_profile(h_nu(nu, r))
    expected = [cmath.exp(1j * math.pi * (2 * j + 1) / (2 * nu + 1)) for j in range(2 * nu + 1)]
    found = [nd.location for nd in profile.circle_nodes()]
    assert same_multiset(found, expected, 1e-13)
    assert all(nd.multiplicity == 1 for nd in profile.circle_nodes())


def test_royal_profile_geodesics():
    assert royal_profile(geodesic(0.5)).type_pair == (1, 0)
    profile = royal_profile(geodesic(1j))
    assert profile.type_pair == (1, 1)
    assert abs(profile.nodes[0].location + 1) < 1e-10  # beta^2 = -1


def test_triple_circle_node_stays_on_sigma():
    # A circle sigma of multiplicity 3 is an order-6 zero of R; its merged cluster
    # point is the node, with no angle correction that could pull it off sigma.
    sigma = -0.18476087795371252 + 0.9827835051412764j
    spec = SynthesisSpec(
        alphas=(),
        taus=(
            -0.4419392242091989 + 0.8970449944709414j,
            0.889119270686953 - 0.457675564666829j,
            0.5205236674541506 - 0.8538472413845938j,
            -0.14424449073688614 - 0.9895420793943309j,
            0.8957274097900161 + 0.44460365197653134j,
        ),
        sigmas=(sigma, sigma, sigma, -0.09667625733714875 + 0.13731906276924874j,
                0.237267909463023 + 0.4393406885926202j),
        t_plus=0.2818671174379421,
        t=1.0772624422122152,
        omega=-0.7943454759180474 - 0.607466266461382j,
    )
    h = synthesize(spec)
    (node,) = royal_profile(h).circle_nodes()
    assert node.multiplicity == 3 and abs(node.location - sigma) < 1e-10
    near = [z for z in recover_spec(h).sigmas if abs(z - sigma) < 1e-10]
    assert len(near) == 3


@pytest.fixture
def count_royal_solves(monkeypatch):
    solved = []
    solve = gammakit.royal.roots_with_multiplicity

    def counting(f, tol, keep=None):
        solved.append(f)
        return solve(f, tol, keep)

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
    recover_spec(h)
    witness_non_extreme(h)
    assert is_s_extreme(h) is False
    assert len(count_royal_solves) == 1


def test_royal_polynomial_built_once_per_map(monkeypatch):
    built = []
    build = gammakit.royal.royal_polynomial

    def counting(h):
        built.append(h)
        return build(h)

    for name, module in list(sys.modules.items()):  # every gammakit module binding it
        if name.startswith("gammakit") and getattr(module, "royal_polynomial", None) is build:
            monkeypatch.setattr(module, "royal_polynomial", counting)
    spec = SynthesisSpec(
        alphas=(0.3 + 0.2j,), taus=(1j,), sigmas=(0.5, -1, 0.2j), t_plus=1.0, t=0.8, omega=1.0
    )
    h = synthesize(spec)
    royal_profile(h)
    recover_spec(h)
    assert len(built) == 1
    assert h.royal.coeffs == build(h).coeffs


def test_royal_profile_memo_respects_tol(count_royal_solves):
    h = h_nu(1, 0.5)
    profile = royal_profile(h)
    assert royal_profile(h) is profile
    assert len(count_royal_solves) == 1

    twin = h_nu(1, 0.5, h.tol.with_overrides(eps_root=1e-9))
    assert twin == h and hash(twin) == hash(h)
    other = royal_profile(twin)
    assert other is not profile and other.type_pair == profile.type_pair
    assert royal_profile(twin) is other and royal_profile(h) is profile
    assert len(count_royal_solves) == 2


def test_analyses_read_the_tolerance_of_their_map():
    checked = set()
    for name in gammakit.__all__:
        obj = getattr(gammakit, name)
        params = list(inspect.signature(obj).parameters.values()) if inspect.isfunction(obj) else []
        if params and params[0].annotation in ("GammaInner", "SynthesisSpec"):
            assert "tol" not in [p.name for p in params], f"{name} takes a second tolerance"
            checked.add(name)
    six = {"royal_profile", "recover_spec", "witness_non_extreme", "boundary_flatness",
           "is_superficial", "synthesize"}
    assert six <= checked

    # At eps_trim = 1e-5 every coefficient of R is noise; the map validated there says so.
    spec = SynthesisSpec(alphas=(), taus=(1j,), sigmas=(0.3,), t_plus=1e-7, t=1.0, omega=1)
    h = synthesize(spec)
    assert royal_profile(h).type_pair == (1, 0)
    loose = validate(h.E, h.D, h.n, h.tol.with_overrides(eps_trim=1e-5))
    with pytest.raises(RoyalVariety, match="vanishes identically"):
        royal_profile(loose)


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


POOL_SEEDS = (2001, 2002, 732, 20240214)  # the benchmark's four roundtrip pool seeds
POOL_DRAWS = 100

# Draws of those streams whose float |s| stays 2e-8 to 2e-6 below 2 at a circle node of
# their profile (symbol depth below 1e-5), so the contact test reads 0 there.
_UNTOUCHED_NODES = {(2002, 80), (732, 78)}


def _pool_maps(seed):
    """(draw index, map) for the synthesizable ones among the first POOL_DRAWS specs of seed."""
    rng = random.Random(seed)
    for index in range(POOL_DRAWS):
        spec = random_spec(rng)
        try:
            yield index, synthesize(spec)
        except GammaKitError:
            continue


def test_boundary_flatness_matches_multiplicity():
    maps = [h_nu(nu, r) for nu in range(4) for r in (0.5, 0.9)] + [h_nu(4, 0.9)]
    maps += [
        h for seed in POOL_SEEDS for index, h in _pool_maps(seed)
        if (seed, index) not in _UNTOUCHED_NODES
    ]
    nodes = 0
    for h in maps:
        for node in royal_profile(h).circle_nodes():
            order = boundary_flatness(h, node.location)
            assert order % 2 == 0 and order == 2 * node.multiplicity, (h, node, order)
            nodes += 1
    assert nodes >= 1000


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 22): at a circle node of a shallow map the float "
    "|s| stays below 2 - 1e-8, so the fixed contact test reads 0 where the profile has 2 nu",
)
@pytest.mark.parametrize("seed, index", sorted(_UNTOUCHED_NODES))
def test_boundary_flatness_at_untouched_profile_nodes(seed, index):
    h = dict(_pool_maps(seed))[index]
    orders = [boundary_flatness(h, node.location) for node in royal_profile(h).circle_nodes()]
    assert orders == [2 * node.multiplicity for node in royal_profile(h).circle_nodes()]


@pytest.mark.parametrize(
    "nodes", [(), (RoyalNode(1 + 0j, 1, NodeRegion.CIRCLE),)], ids=["none", "far"]
)
def test_boundary_flatness_raises_without_a_profile_node(monkeypatch, nodes):
    # |s(-1)| = 2 for h_nu(0), whose true node is -1; a profile without it must not be answered.
    h = h_nu(0, 0.5)
    fake = RoyalProfile(nodes=nodes, n=2, k=len(nodes))
    monkeypatch.setattr(gammakit.royal, "royal_profile", lambda _: fake)
    with pytest.raises(GammaKitError, match=r"\|s\(tau\)\| = .* no circle node") as caught:
        boundary_flatness(h, -1)
    assert type(caught.value) is GammaKitError
    assert f"nearest: {nodes[0] if nodes else None}" in str(caught.value)


def test_boundary_flatness_at_close_simple_nodes():
    spec = SynthesisSpec(
        alphas=(0.2 + 0.1j,) * 2,
        taus=(),
        sigmas=(cmath.exp(1.7j), cmath.exp(1.71j), 0.4j, -0.3),
        t_plus=1,
        t=0.5,
        omega=1,
    )
    h = synthesize(spec)
    profile = royal_profile(h)
    assert profile.type_pair == (4, 2)
    assert [boundary_flatness(h, nd.location) for nd in profile.circle_nodes()] == [2, 2]


def test_boundary_flatness_geodesic():
    assert boundary_flatness(geodesic(1j), -1) == 2


def test_boundary_flatness_rejects_tau_off_circle():
    for tau in (0.5, math.nan, complex(math.nan, 1.0), math.inf):
        with pytest.raises(ValueError, match="tau must lie on the unit circle"):
            boundary_flatness(h_nu(0, 0.5), tau)


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


def _shallow_sweep(ratio):
    """(spec index, found k or the raised error, circle sigma count) with t_plus = t^2 / ratio.

    The 30 ``random_spec(Random(2), n_max=8)`` specs: |E|^2 dominates R by about the ratio.
    """
    rng = random.Random(2)
    outcomes = []
    for index in range(30):
        spec = random_spec(rng, n_max=8)
        circle = sum(abs(abs(sigma) - 1.0) <= 1e-12 for sigma in spec.sigmas)
        h = synthesize(dataclasses.replace(spec, t_plus=spec.t * spec.t / ratio))
        try:
            found = royal_profile(h).k
        except GammaKitError as exc:
            found = exc
        outcomes.append((index, found, circle))
    return outcomes


_ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 1): once |E|^2 dominates R, the circle double "
    "roots of R split under cancellation and royal_profile can return a wrong k",
)


@pytest.mark.parametrize(
    "ratio", [1e2, 1e4, pytest.param(1e5, marks=_ITEM_1), pytest.param(1e6, marks=_ITEM_1)]
)
def test_royal_type_right_or_flagged_when_e_squared_dominates(ratio):
    wrong = [
        (index, found, circle)
        for index, found, circle in _shallow_sweep(ratio)
        if not isinstance(found, GammaKitError) and found != circle
    ]
    assert not wrong


def test_shallow_sweep_errors_are_royal_circle_zeros():
    raised = [
        found
        for ratio in (1e2, 1e4, 1e5, 1e6)
        for _, found, _ in _shallow_sweep(ratio)
        if isinstance(found, GammaKitError)
    ]
    assert raised  # the sweep reaches royal_profile's OddCircleZero re-raise
    for exc in raised:
        assert type(exc) is OddCircleZero and str(exc).startswith("royal polynomial: ")


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 3): the order-6 circle zero of R comes back as six "
    "simple roots about 0.0103 from sigma, past the 1e-2 cluster cap, and counts as disc nodes",
)
def test_triple_circle_node_past_the_cluster_cap():
    sigma = cmath.exp(3.825j)
    spec = SynthesisSpec(
        alphas=(0.08 + 0.55j, 0.45 - 0.08j, 0.51 - 0.13j),
        taus=(cmath.exp(-0.2j),),
        sigmas=(sigma, sigma, sigma, 0.02 + 0.016j, -0.48 - 0.42j, -0.22 - 0.23j, -0.57 + 0.56j),
        t_plus=6.7,
        t=1.55,
        omega=1,
    )
    h = synthesize(spec)
    try:
        found = royal_profile(h).type_pair
    except GammaKitError:
        return
    assert found == (7, 3)


def _repeated_circle_node(nu, sigma):
    """nu copies of the circle point sigma plus 0.3 and -0.4i: type (nu + 2, nu).

    E takes floor((nu + 2) / 2) copies of alpha = 0.1 + 0.2i, and tau = i when nu is odd.
    """
    return synthesize(
        SynthesisSpec(
            alphas=(0.1 + 0.2j,) * ((nu + 2) // 2),
            taus=(1j,) * (nu % 2),
            sigmas=(sigma,) * nu + (0.3, -0.4j),
            t_plus=1,
            t=0.5,
            omega=1,
        )
    )


_CIRCLE_POINTS = pytest.mark.parametrize(
    "sigma", [-1 + 0j, cmath.exp(1.3j)], ids=["minus-one", "angle-1.3"]
)


@_CIRCLE_POINTS
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_repeated_circle_node_keeps_its_multiplicity(nu, sigma):
    h = _repeated_circle_node(nu, sigma)
    assert royal_profile(h).type_pair == (nu + 2, nu)
    assert boundary_flatness(h, sigma) == 2 * nu


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP items 1, 3 and 10): the circle zero of R of order "
    "2 nu >= 8 splits farther than the 1e-2 cluster cap into disc nodes near sigma, so "
    "the s-extreme map reads k = 0 and gets a witness",
)
@_CIRCLE_POINTS
@pytest.mark.parametrize("nu", [4, 5])
def test_high_order_circle_node_is_not_read_as_disc_nodes(nu, sigma):
    h = _repeated_circle_node(nu, sigma)
    assert royal_profile(h).type_pair == (nu + 2, nu)
    with pytest.raises(ExtremeNoWitness):
        witness_non_extreme(h)


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 1): on an unreduced non-strict map the circle zero "
    "D shares with E counts as a royal node, so the type exceeds the degree",
)
def test_non_strict_map_with_cancelled_circle_zero():
    # E / D = (1 + lambda) / 2 and D~ / D = lambda after cancelling 1 + lambda: degree 1.
    h = validate(Poly([0.5, 1, 0.5]), Poly([1, 1]), 2, strict=False)
    assert h.degree == 1
    try:
        found = royal_profile(h).type_pair
    except GammaKitError:
        return
    assert found == (1, 0)
