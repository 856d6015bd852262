"""roots_with_multiplicity against a 50-digit oracle.

``mpmath.polyroots`` at 50 digits gives the roots of the float coefficients
themselves. A computed m-fold root must gather exactly m oracle roots (each
oracle root goes to its nearest computed root) and sit at their centroid,
which is well conditioned even where the m oracle roots themselves split.
"""

import cmath
import random

import pytest

from gammakit import Poly, poly_from_roots, roots_with_multiplicity, to_trig_modulus_squared
from gammakit.polynomials import _CLUSTER_CAP

mpmath = pytest.importorskip("mpmath")

Z0 = 0.4 + 0.3j


def _oracle_roots(p: Poly) -> list[complex]:
    with mpmath.workdps(50):
        found = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=60)
    return [complex(z) for z in found]


def _check_against_oracle(p: Poly, tol: float):
    """Assert multiplicities and centroids; return the computed pairs."""
    computed = roots_with_multiplicity(p)
    assert sum(m for _, m in computed) == p.degree
    gathered = [[] for _ in computed]
    for w in _oracle_roots(p):
        nearest = min(range(len(computed)), key=lambda i: abs(computed[i][0] - w))
        gathered[nearest].append(w)
    for (z, m), members in zip(computed, gathered):
        assert len(members) == m, f"root {z:.6g} of multiplicity {m} gathers {len(members)}"
        centroid = sum(members) / m
        assert abs(z - centroid) <= tol * (1.0 + abs(z)), (z, centroid)
    return computed


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the clusterer merges this resolvable chain into multiple roots",
)
def test_chain_of_simple_roots_in_one_component():
    spacing = 0.6 * _CLUSTER_CAP
    chain = [(Z0 + spacing * k, 1) for k in range(8)]
    # Consecutive links are below the cap, so the chain is one component.
    assert spacing < _CLUSTER_CAP
    computed = _check_against_oracle(poly_from_roots(chain), 1e-9)
    assert [m for _, m in computed] == [1] * 8


def test_two_double_roots_in_separate_components():
    far = Z0 + 1.5 * _CLUSTER_CAP
    computed = _check_against_oracle(poly_from_roots([(Z0, 2), (far, 2)]), 1e-9)
    assert [m for _, m in computed] == [2, 2]
    assert abs(computed[0][0] - Z0) < 1e-9 and abs(computed[1][0] - far) < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a linked group holding more roots than the multiplicity is "
    "rejected whole, so the 4-fold root and its neighbour come back as five simple roots",
)
def test_fourfold_root_beside_simple_root():
    near = Z0 + 0.5 * _CLUSTER_CAP
    computed = _check_against_oracle(poly_from_roots([(Z0, 4), (near, 1)]), 1e-9)
    assert [m for _, m in computed] == [4, 1]


def test_gaussian_symbol_degree_32():
    rng = random.Random(32)
    e = Poly([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(33)])
    symbol = Poly(to_trig_modulus_squared(e).coeffs)
    assert symbol.degree == 64
    computed = _check_against_oracle(symbol, 1e-9)
    assert all(m == 1 for _, m in computed)


def _graded(step, offset, turn):
    return [(10 ** (step * j - offset) * cmath.exp(1j * turn * j), 1) for j in range(13)]


@pytest.mark.parametrize(
    "layout",
    [
        pytest.param(_graded(1 / 3, 2, 2), id="third-decades"),
        pytest.param(
            _graded(1 / 2, 3, 1),
            id="half-decades",
            marks=pytest.mark.xfail(
                strict=True,
                reason="known defect: the peak term of the residual floor merges the "
                "simple roots near 1e-3 and 0.0017+0.0027j into one double root",
            ),
        ),
    ],
)
def test_graded_simple_roots(layout):
    # Coefficient moduli span 7.5e6 (third decades) and 3.4e10 (half decades),
    # where companion eigenvalues are only normwise backward stable.
    computed = _check_against_oracle(poly_from_roots(layout), 1e-12)
    assert all(m == 1 for _, m in computed)
