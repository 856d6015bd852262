"""witness_non_extreme against the per-trial halving search.

``reference_witness_non_extreme`` is an earlier search: it rebuilds
``circle_gap`` for E +- t g and runs ``circle_extrema`` at every halving, and
validates h+ and h- from scratch. The search under test runs each trial on the
precomputed quadratic pencil G0 -+ t X - t^2 Q instead; it must return the same
t and bit-identical h+ and h- (E, D and n), or raise the same error.
"""

import dataclasses
import random

import numpy as np
import pytest

from gammakit import (
    DEFAULT_TOL,
    ExtremeNoWitness,
    GammaInner,
    GammaKitError,
    Poly,
    synthesize,
    validate,
    witness_non_extreme,
)
from gammakit.inner import circle_gap
from gammakit.royal import royal_profile
from gammakit.spectral import circle_extrema
import gammakit.synthesis
from gammakit.synthesis import _admissible, _first_step, _perturbation_direction
from gammakit.tolerances import ToleranceConfig

from helpers import count_calls, random_spec


def reference_witness_non_extreme(
    h: GammaInner, tol: ToleranceConfig | None = None
) -> tuple[float, GammaInner, GammaInner]:
    """A strict convex decomposition h = (h+ + h-) / 2 when 2k <= n.

    The perturbation size t starts at 1 and halves until the circle minimum
    of 4 |D|^2 - |E +- t g|^2 is nonnegative for both signs; a small enough
    t always succeeds when 2k <= n. ``circle_extrema`` estimates that minimum
    by a grid scan plus local refinement, not a certified bound (ROADMAP
    defect C). Raises ``ExtremeNoWitness`` when 2k > n, in which case no
    decomposition exists.
    """
    tol = tol or h.tol
    profile = royal_profile(h)
    if 2 * profile.k > profile.n:
        raise ExtremeNoWitness(
            f"type {profile.type_pair} satisfies 2k > n; the map is s-extreme"
        )

    circle_taus = []
    for node in profile.circle_nodes():
        circle_taus.extend([node.location] * node.multiplicity)
    g = _perturbation_direction(h, circle_taus)

    t_step = 1.0
    for _ in range(60):
        ok = True
        for sign in (1.0, -1.0):
            gap = circle_gap(h.E + (sign * t_step) * g, h.D)
            min_val, _ = circle_extrema(gap, tol.circle_samples)
            if min_val < -0.5 * tol.eps_residual * (1.0 + gap.max_coeff):
                ok = False
                break
        if ok:
            break
        t_step *= 0.5
    else:
        raise GammaKitError("no admissible perturbation size found in 60 halvings")

    h_plus = validate(h.E + t_step * g, h.D, h.n, tol)
    h_minus = validate(h.E + (-t_step) * g, h.D, h.n, tol)
    return t_step, h_plus, h_minus


def _outcome(search, h):
    try:
        return search(h)
    except GammaKitError as exc:
        return type(exc), str(exc)


def _assert_same(h):
    found = _outcome(witness_non_extreme, h)
    expected = _outcome(reference_witness_non_extreme, h)
    assert found == expected  # GammaInner equality: E, D and n
    if isinstance(found[0], float):
        assert [m.tol for m in found[1:]] == [m.tol for m in expected[1:]]
    return found


def _maps(seed: int, count: int):
    """Synthesized maps from random_spec, also with t_plus = t^2 / ratio (shallow)."""
    rng = random.Random(seed)
    for _ in range(count):
        spec = random_spec(rng, n_max=10)
        for ratio in (None, 1e2, 1e4):
            shallow = spec
            if ratio is not None:
                shallow = dataclasses.replace(spec, t_plus=spec.t * spec.t / ratio)
            try:
                yield synthesize(shallow)
            except GammaKitError:
                continue


@pytest.mark.parametrize("seed", [3, 17, 29, 20240214, 2001, 2002, 732])
def test_witness_matches_unscreened_search(seed):
    witnessed = 0
    for h in _maps(seed, 10):
        witnessed += isinstance(_assert_same(h)[0], float)
    assert witnessed


def test_witness_matches_unscreened_search_with_other_tolerances():
    rng = random.Random(41)
    tolerances = (
        DEFAULT_TOL.with_overrides(eps_residual=4e-9),
        DEFAULT_TOL.with_overrides(circle_samples=300),
    )
    witnessed = 0
    for _ in range(6):
        h = synthesize(random_spec(rng, n_max=10))
        for tol in tolerances:
            assert tol != h.tol
            witnessed += isinstance(_assert_same(validate(h.E, h.D, h.n, tol))[0], float)
    assert witnessed


def test_witness_matches_unscreened_search_non_strict():
    # D = 1 + lambda vanishes at -1, so only strict=False accepts the pair, and it
    # cancels the zero: (E, D) = ((1 + lambda) / 2, 1) at n = 1, so h = ((1 + lambda) / 2,
    # lambda), of type (1, 0). Its pair E +- t g has t = 1, and h+- keep h's D = 1.
    square = Poly([1.0, 2.0, 1.0])
    h = validate(0.5 * square, Poly([1.0, 1.0]), 2, strict=False)
    assert h == validate(Poly([0.5, 0.5]), Poly([1.0]), 1)
    t, h_plus, h_minus = _assert_same(h)
    assert t == 1.0 and h_plus.D == h_minus.D == Poly([1.0])
    rng = random.Random(43)
    for _ in range(4):
        g = synthesize(random_spec(rng, n_max=10))
        _assert_same(validate(g.E, g.D, g.n, strict=False))


def test_witness_search_starts_at_the_admissible_radius(monkeypatch):
    # The start 2^(1 + ceil(log2 u*)) skips the sizes that fail anyway: a search from 1
    # calls _admissible 168 times on these maps.
    calls = count_calls(monkeypatch, "_admissible", _admissible)
    witnessed = sum(isinstance(_assert_same(h)[0], float) for h in _maps(20240214, 10))
    assert witnessed and len(calls) <= 60


@pytest.mark.parametrize(
    "g0, x, q, slack, start",
    [
        ([10.0, 10.0], [1.0, -1.0], [1.0, 1.0], 0.0, 1.0),  # u* = 2.7
        ([3.0, 5.0], [0.0, 0.0], [4.0, 4.0], 0.0, 1.0),  # u* = 0.87: 2 is capped at 1
        ([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], 1e-9, 1.0),  # X = Q = 0: u* = inf
        ([-1e-9, 1.0], [0.0, 1.0], [1.0, 1.0], 1e-9, 1.0),  # 0 / 0: u* = NaN
        ([1.0, 1.0], [0.0, 0.0], [-1.0, 1.0], 0.0, 1.0),  # sqrt(-4): u* = NaN
        ([-2.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.0, 1.0),  # below -s: u* < 0
        ([1.0, 4.0], [0.0, 0.0], [2.0**20, 1.0], 0.0, 2.0**-9),  # u* = 2^-10 exactly
        ([1.0, 1.0], [0.0, 0.0], [25.0, 1.0], 0.0, 0.5),  # u* = 0.2: 2^(1 - 2)
        ([1e-40, 1.0], [1.0, 0.0], [0.0, 0.0], 0.0, 2.0**-59),  # u* = 1e-40: the last size
    ],
)
def test_first_step_fallbacks_and_bounds(g0, x, q, slack, start):
    assert _first_step(np.array([g0, x, q]), slack) == start


def test_witness_search_tries_no_size_below_the_last_halving(monkeypatch):
    tried = []

    def rejecting(halves, grids, u, tol):
        tried.append(u)
        return False

    monkeypatch.setattr(gammakit.synthesis, "_admissible", rejecting)
    h = next(h for h in _maps(20240214, 10) if 2 * royal_profile(h).k <= h.n)
    with pytest.raises(GammaKitError, match="no admissible perturbation size found in 60"):
        witness_non_extreme(h)
    assert tried == [tried[0] * 0.5**i for i in range(len(tried))]
    assert tried[0] <= 1.0 and tried[-1] == 2.0**-59
