"""Seeded generators shared by the test modules."""

from __future__ import annotations

import cmath
import math
import random
import sys

import numpy as np
from hypothesis import settings, strategies as st

from gammakit import (
    GammaKitError, Poly, SynthesisSpec, recover_spec, royal_profile, synthesize,
)

# Bit-for-bit properties: reproducible draws, and coefficients with finite parts where
# both signed zeros are drawn often.
BITWISE = settings(derandomize=True, max_examples=100, database=None, deadline=None)
_PARTS = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
COEFFS = st.builds(complex, _PARTS, _PARTS)


def random_poly(rng: random.Random, degree: int) -> Poly:
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1)]
    if abs(coeffs[-1]) < 0.1:
        coeffs[-1] += 0.5
    return Poly(coeffs)


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


def random_spec(rng: random.Random, n_max: int = 10) -> SynthesisSpec:
    """A well-separated random prescription: mixed circle and interior nodes."""
    return random_spec_of_degree(rng, rng.randint(1, n_max))


def random_spec_of_degree(rng: random.Random, n: int) -> SynthesisSpec:
    """``random_spec``'s recipe at the fixed degree n.

    Circle nodes and tau stay 0.1 apart, disc points 0.05 apart, with
    moduli at most 0.85. A draw whose points cannot be placed raises
    ``RuntimeError``; the rng then continues from where the draw stopped.
    """
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
    return SynthesisSpec(
        alphas=tuple(alphas),
        taus=tuple(cmath.exp(1j * a) for a in tau_angles),
        sigmas=tuple(sigmas),
        t_plus=t_plus,
        t=t,
        omega=random_unimodular(rng),
    )


_SWEEPS: dict[int, tuple[random.Random, list]] = {}


def degree_sweep(n: int, draws: int = 20) -> tuple[tuple[int, SynthesisSpec], ...]:
    """The degree sweep at n: (index, spec) for the first ``draws`` draws of
    ``random_spec_of_degree`` from ``random.Random(n)``, skipping draws that raise.

    The draws are kept per n, so a later call only draws the ones it adds.
    """
    rng, found = _SWEEPS.setdefault(n, (random.Random(n), []))
    while len(found) < draws:
        try:
            found.append((len(found), random_spec_of_degree(rng, n)))
        except RuntimeError:
            found.append((len(found), None))
    return tuple((index, spec) for index, spec in found[:draws] if spec is not None)


def circle_count(spec: SynthesisSpec) -> int:
    """The number of the spec's sigmas on the unit circle: k of its type (n, k)."""
    return sum(abs(abs(sigma) - 1.0) <= 1e-12 for sigma in spec.sigmas)


def sweep_outcome(spec: SynthesisSpec) -> str:
    """The pipeline's answer to a sweep spec: "right" when ``synthesize``, ``royal_profile``
    and ``recover_spec`` give the spec's type and every sigma within 1e-6, "raised" on a
    ``GammaKitError``, and "silent" otherwise."""
    try:
        h = synthesize(spec)
        found = royal_profile(h).type_pair
        sigmas = recover_spec(h).sigmas
    except GammaKitError:
        return "raised"
    right = found == (spec.n, circle_count(spec)) and same_multiset(sigmas, spec.sigmas, 1e-6)
    return "right" if right else "silent"


def circle_points(count: int):
    return [cmath.exp(2j * math.pi * j / count) for j in range(count)]


def same_multiset(found, expected, tol: float) -> bool:
    """Match two point lists up to permutation within ``tol``."""
    remaining = list(expected)
    for z in found:
        for i, w in enumerate(remaining):
            if abs(z - w) <= tol:
                remaining.pop(i)
                break
        else:
            return False
    return not remaining


def count_calls(monkeypatch, name: str, original) -> list:
    """Record the calls to ``original`` made through any gammakit module binding it as ``name``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gammakit") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def same_bits(a, b) -> bool:
    """Whether two complex values, arrays or sequences agree in shape and every bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
