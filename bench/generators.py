"""Seeded input generators for the benchmark.

These are the benchmark's own copies of the acceptance-suite generators, so
an edit to ``tests/`` cannot change the benchmark's traffic. ``run.py
--self-check`` confirms that ``random_spec`` still draws, from seed
20240214, the acceptance pool that ``tests/helpers.random_spec`` draws.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

import gammakit as gk

ROUNDTRIP_SEED = 20240214
FACTOR_SEED = 424242
H_NU_GRID = [(nu, r) for nu in range(5) for r in (0.1, 0.5, 0.9)]
_CIRCLE_4096 = np.exp(2j * np.pi * np.arange(4096) / 4096)


def random_unimodular(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _separated_angles(rng: random.Random, count: int, taken, gap: float) -> list[float]:
    angles = list(taken)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("could not place separated angles")
        cand = rng.uniform(0.0, 2.0 * math.pi)
        if all(abs(cmath.exp(1j * cand) - cmath.exp(1j * a)) > gap for a in angles):
            angles.append(cand)
            out.append(cand)
    return out


def _separated_disc_points(rng: random.Random, count: int, gap: float) -> list[complex]:
    points: list[complex] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("could not place separated disc points")
        cand = cmath.rect(0.85 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        if all(abs(cand - q) > gap for q in points):
            points.append(cand)
    return points


def random_spec(rng: random.Random, n_max: int = 10) -> gk.SynthesisSpec:
    """A well-separated random prescription: mixed circle and interior nodes.

    Draws from ``rng`` in exactly the order the acceptance suite does.
    """
    n = rng.randint(1, n_max)
    k0 = rng.randint(0, n // 2)
    k1 = n - 2 * k0
    n_circle = rng.randint(0, n)

    tau_angles = _separated_angles(rng, k1, [], 0.1)
    sigma_angles = _separated_angles(rng, n_circle, tau_angles, 0.1)
    sigmas = [cmath.exp(1j * a) for a in sigma_angles]
    sigmas += _separated_disc_points(rng, n - n_circle, 0.05)
    alphas = _separated_disc_points(rng, k0, 0.05)

    log_hi = math.log(10.0)
    t_plus = math.exp(rng.uniform(math.log(0.1), log_hi))
    t = math.exp(rng.uniform(math.log(0.1), log_hi)) * rng.choice((-1.0, 1.0))
    return gk.SynthesisSpec(
        alphas=tuple(alphas),
        taus=tuple(cmath.exp(1j * a) for a in tau_angles),
        sigmas=tuple(sigmas),
        t_plus=t_plus,
        t=t,
        omega=random_unimodular(rng),
    )


def spec_pool(seed: int, count: int, n_max: int = 10) -> list[gk.SynthesisSpec]:
    """The first ``count`` specs of the stream; seed 20240214 gives the acceptance pool."""
    rng = random.Random(seed)
    return [random_spec(rng, n_max) for _ in range(count)]


def spec_stream(rng: random.Random):
    while True:
        yield random_spec(rng)


def stratified(draws, key, per_key: int, keys, accept=lambda item: True) -> list:
    """The first ``per_key`` accepted draws for each of ``keys``, in draw order.

    Fixing how many inputs of each size a pool holds removes most of the
    seed-to-seed spread of a pool's total work, while each input is still
    drawn from the same distribution as the acceptance suite's.
    """
    counts = dict.fromkeys(keys, 0)
    out = []
    for item in draws:
        k = key(item)
        if k in counts and counts[k] < per_key and accept(item):
            counts[k] += 1
            out.append(item)
            if len(out) == per_key * len(counts):
                return out


def gaussian_poly(rng: random.Random, degree: int) -> gk.Poly:
    """Criterion-4 draw: i.i.d. standard complex Gaussian coefficients."""
    return gk.Poly([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1)])


def symbol_stream(rng: random.Random):
    """The criterion-4 sequence of E: degree uniform in 1..16, then its coefficients."""
    while True:
        e = gaussian_poly(rng, rng.randint(1, 16))
        if not e.is_zero():
            yield e


def factor_pool(
    seed: int, generic_per_degree: int, circle_per_degree: int, tail_degrees
) -> list[tuple[str, gk.TrigPoly]]:
    """Symbols |E|^2 labelled by kind, in this order.

    ``generic``: the criterion-4 distribution (degree 1..16), whose roots are
    simple and come in reciprocal pairs. ``circle``: |E (lambda - tau)|^2
    with tau the point of the circle farthest from every root of E, so tau
    is a genuine double zero on the circle, isolated from the other zeros.
    (With tau uniform instead, fejer_riesz returns wrong factors without
    raising for about 0.2% of these symbols, where a root of E lies near
    both the circle and tau; ``probe_circle_cluster`` reports that defect.)
    ``tail``: one Gaussian E at each degree in ``tail_degrees``.
    """
    rng = random.Random(seed)
    degrees = range(1, 17)
    generic = stratified(symbol_stream(rng), lambda e: e.degree, generic_per_degree, degrees)
    out = [("generic", gk.to_trig_modulus_squared(e)) for e in generic]
    for e in stratified(symbol_stream(rng), lambda e: e.degree, circle_per_degree, degrees):
        roots = np.roots(np.asarray(e.coeffs, dtype=complex)[::-1])
        gaps = np.min(np.abs(_CIRCLE_4096[:, None] - roots[None, :]), axis=1)
        tau = complex(_CIRCLE_4096[np.argmax(gaps)])
        out.append(("circle", gk.to_trig_modulus_squared(e * gk.Poly([-tau, 1.0]))))
    for degree in tail_degrees:
        out.append(("tail", gk.to_trig_modulus_squared(gaussian_poly(rng, degree))))
    return out


def h_nu_family() -> list[gk.GammaInner]:
    return [gk.h_nu(nu, r) for nu, r in H_NU_GRID]
