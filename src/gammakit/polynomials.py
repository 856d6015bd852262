"""Complex polynomial arithmetic, the conjugate-reciprocal involution and roots.

Polynomials are dense coefficient sequences in ascending power order. All
operations are pure; every returned polynomial is normalized so that the
trailing coefficient is significant relative to the largest one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegreeExceedsBound, PointOutOfRegion, ZeroPolynomial
from .tolerances import DEFAULT_TOL, ToleranceConfig

_EPS = 2.220446049250313e-16
_TRIM_REL = 1e-12


@dataclass(frozen=True, init=False)
class Poly:
    """A complex polynomial; ``coeffs[i]`` multiplies ``lambda**i``.

    The zero polynomial is the empty tuple. Construction trims trailing
    coefficients whose modulus is below ``eps_trim`` times the largest
    coefficient modulus, keeping degrees honest after cancellation, and
    raises :class:`BadParameter` for an infinite or NaN coefficient.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=(), eps_trim: float = _TRIM_REL):
        cs = tuple(list(map(complex, coeffs)))  # tuple(map)'s resizing fills tuple free lists
        object.__setattr__(self, "coeffs", _normalized(cs, eps_trim))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_coeff(self) -> float:
        return max(map(abs, self.coeffs), default=0.0)

    def coeff(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0j

    def padded(self, length: int) -> list[complex]:
        return list(self.coeffs) + [0j] * max(0, length - len(self.coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([a + b for a, b in zip(self.padded(n), other.padded(n))])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([a - b for a, b in zip(self.padded(n), other.padded(n))])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(_convolve(self.coeffs, other.coeffs))
        return Poly([complex(other) * c for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, z):
        """Horner evaluation at z: a complex, or elementwise over a numpy array."""
        return _horner(self.coeffs, z)

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])


def _check_finite(mags, what: str = "polynomial") -> None:
    """Raise :class:`BadParameter` unless every coefficient modulus in mags is finite."""
    # The sum is finite unless a modulus is not, or the sum overflows.
    if not math.isfinite(sum(mags)) and not all(map(math.isfinite, mags)):
        raise BadParameter(f"{what} coefficients must be finite")


def _normalized(cs, eps_trim: float = _TRIM_REL):
    """Slice of the complex sequence cs that ``Poly.__init__`` keeps: non-finite entries
    raise, trailing moduli at most ``eps_trim`` times the largest are trimmed."""
    mags = list(map(abs, cs))
    _check_finite(mags)
    cutoff = eps_trim * max(mags, default=0.0)
    end = len(cs)
    while end > 0 and mags[end - 1] <= cutoff:
        end -= 1
    return cs[:end]


def _convolve(a, b) -> list[complex]:
    """Untrimmed product coefficients of two coefficient sequences (zeros if one is empty)."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(cs, z):
    """Ascending coefficients cs at z, a complex or elementwise a numpy array; empty cs
    (the zero polynomial) gives 0j or complex zeros shaped like the array."""
    if not cs:
        return np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0j
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def conj_reciprocal(f: Poly, n: int) -> Poly:
    """The reflection ``lambda**n * conj(f(1/conj(lambda)))`` as a polynomial.

    Coefficient k of the result is the conjugate of coefficient n-k of f.
    """
    if n < 0:
        raise DegreeExceedsBound(f"reflection bound must be nonnegative, got {n}")
    if f.degree > n:
        raise DegreeExceedsBound(f"degree {f.degree} exceeds reflection bound {n}")
    padded = f.padded(n + 1)
    return Poly([padded[n - k].conjugate() for k in range(n + 1)])


def is_n_symmetric(f: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when f equals its n-reflection within ``eps_residual`` slack."""
    if n < 0 or f.degree > n:
        return False
    mirrored = conj_reciprocal(f, n)
    a = f.padded(n + 1)
    b = mirrored.padded(n + 1)
    gap = max(abs(x - y) for x, y in zip(a, b))
    return gap <= tol.eps_residual * (1.0 + f.max_coeff)


# -- elementary factors -----------------------------------------------------


def q_factor(sigma: complex, tol: ToleranceConfig = DEFAULT_TOL) -> Poly:
    """The 2-symmetric factor (lambda - sigma)(1 - conj(sigma) lambda).

    Requires sigma in the closed unit disc, up to ``eps_circle`` slack.
    """
    sigma = complex(sigma)
    if abs(sigma) > 1.0 + tol.eps_circle:
        raise PointOutOfRegion(f"|sigma| = {abs(sigma):.3g} lies outside the closed disc")
    return Poly([-sigma, 1.0 + abs(sigma) ** 2, -sigma.conjugate()])


def l_factor(tau: complex, tol: ToleranceConfig = DEFAULT_TOL) -> Poly:
    """The 1-symmetric factor i e^{-i theta/2} (lambda - tau) for tau = e^{i theta}.

    theta is the principal argument of tau mapped into [0, 2 pi). tau is
    snapped to exact unit modulus; squaring the result gives ``q_factor(tau)``.
    """
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > tol.eps_circle:
        raise PointOutOfRegion(f"|tau| = {abs(tau):.3g} is not on the unit circle")
    tau /= abs(tau)
    theta = cmath.phase(tau)
    if theta < 0.0:
        theta += 2.0 * math.pi
    front = 1j * cmath.exp(-0.5j * theta)
    return Poly([-front * tau, front])


# -- root finding -----------------------------------------------------------


_CLUSTER_CAP = 1e-2


def _components(count, linked):
    """Connected components of indices under a pairwise predicate."""
    seen = [False] * count
    groups = []
    for start in range(count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            i = stack.pop()
            component.append(i)
            for j in range(count):
                if not seen[j] and linked(i, j):
                    seen[j] = True
                    stack.append(j)
        groups.append(component)
    return groups


def _abs_bound(cs, z):
    acc = 0.0
    az = abs(z)
    for c in reversed(cs):
        acc = acc * az + abs(c)
    return acc


class _ClusterContext:
    """Derivatives and residual floors of one polynomial, for clustering.

    ``eps_coeff`` declares the relative uncertainty the coefficients carry
    from upstream arithmetic (for example the cancellation in 4 D D~ - E^2);
    the trimming threshold is the natural level. Differentiation scales each
    coefficient linearly, so the relative noise survives it.
    """

    def __init__(self, f: Poly, eps_coeff: float = 0.0):
        self.source = (f, eps_coeff)
        self.noise = 4.0 * max(f.degree, 1) * _EPS + eps_coeff
        self._derivs = [f.coeffs]

    def deriv(self, j: int):
        """The j-th derivative's coefficients, or None past the constant one.

        The ladder is built on first use: polishing simple roots needs only
        f and f'. Trimming as in ``Poly.derivative`` can end it early.
        """
        while j >= len(self._derivs):
            if len(self._derivs[-1]) <= 1:
                return None
            self._derivs.append(_normalized([k * c for k, c in enumerate(self._derivs[-1])][1:]))
        return self._derivs[j]

    def residual_floor(self, z: complex, j: int = 0) -> float:
        """Below this, |f^{(j)}(z)| is indistinguishable from zero.

        Combines the evaluation bound and the declared coefficient noise,
        with a peak term so the floor stays meaningful near the origin.
        """
        cs = self.deriv(j)
        if cs is None:
            return 0.0
        return self.noise * (_abs_bound(cs, z) + max(map(abs, cs), default=0.0))

    def resolvability(self, z: complex, m: int) -> float:
        """Radius below which an m-fold root at z cannot be split.

        Where the m-th Taylor coefficient is c_m, the residual stays under
        the rounding floor within |w - z| of order (floor / |c_m|)^(1/m), so
        separate approximations inside that disc carry no information.
        """
        g = self.deriv(m)
        if g is None:
            return math.inf
        lead = abs(_horner(g, z)) / math.factorial(m)
        if lead == 0.0:
            return math.inf
        return (self.residual_floor(z) / lead) ** (1.0 / m)

    def consistent_root(self, z: complex, m: int) -> bool:
        """Backward-error test: f and its first m-1 derivatives vanish at z."""
        for j in range(m):
            g = self.deriv(j)
            if g is None:
                break
            if abs(_horner(g, z)) > 32.0 * self.residual_floor(z, j):
                return False
        return True


def _cluster(roots, eps_root, ctx: _ClusterContext):
    """Cluster raw roots into polished (root, multiplicity) pairs.

    Every linkage radius of the hypothesis walk is capped at
    ``_CLUSTER_CAP``, so no group it forms can straddle two components of
    the single-linkage graph at the cap. Each component is therefore walked
    on its own, and an isolated root, the generic case, is polished as a
    simple root without any hypothesis test. A sweep over the sorted roots
    finds the linked ones, as a partner within the cap is within it in real
    part. Components keep their members in sorted (real, imag) order, which
    fixes the order of every centroid sum.
    """
    ordered = sorted(roots, key=lambda w: (w.real, w.imag))
    linked = set()
    for i, z in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if ordered[j].real - z.real > _CLUSTER_CAP:
                break
            if abs(ordered[j] - z) <= _CLUSTER_CAP:
                linked.update((i, j))
    near = [ordered[i] for i in sorted(linked)]
    accepted = [(_polish_cluster(ctx, z, 1, 0.0, eps_root), 1) for z in ordered if z not in near]
    for part in _components(len(near), lambda a, b: abs(near[a] - near[b]) <= _CLUSTER_CAP):
        accepted.extend(_cluster_component([near[a] for a in sorted(part)], eps_root, ctx))
    return accepted


def _cluster_component(roots, eps_root, ctx: _ClusterContext):
    """Multiplicity hypotheses over the roots of one cap-level component.

    Hypotheses are tested from high m downward. The linkage radius for a
    hypothesis combines the eps_root**(1/m) heuristic with the residual
    resolvability radius at each point, capped so that genuinely separated
    roots stay apart; a linked group is accepted only when it holds at least
    m roots and the polished center passes the backward-error test that all
    derivatives below order m vanish numerically. Rejected groups fall
    through to smaller hypotheses.
    """
    pending = [(z, 1) for z in roots]
    accepted = []
    for m in range(len(pending), 1, -1):
        if m > sum(w for _, w in pending):
            continue
        radii = [
            min(
                max(eps_root ** (1.0 / m), 8.0 * ctx.resolvability(z, m)),
                _CLUSTER_CAP,
            )
            for z, _ in pending
        ]

        def linked(i, j):
            return abs(pending[i][0] - pending[j][0]) <= max(radii[i], radii[j])

        still = []
        for group in _components(len(pending), linked):
            total = sum(pending[i][1] for i in group)
            if total >= m and total > 1:
                centroid = sum(pending[i][0] * pending[i][1] for i in group) / total
                spread = max(abs(pending[i][0] - centroid) for i in group)
                polished = _polish_cluster(ctx, centroid, total, spread, eps_root)
                if ctx.consistent_root(polished, total):
                    accepted.append((polished, total))
                    continue
            still.extend(pending[i] for i in group)
        pending = still
    for z, w in pending:
        accepted.append((_polish_cluster(ctx, z, w, 0.0, eps_root), w))
    return accepted


def _polish_cluster(
    ctx: _ClusterContext, z: complex, mult: int, spread: float, eps_root: float
) -> complex:
    """Refine an m-fold root via Newton on the (m-1)-th derivative, g.

    Newton stops at the first step that does not lower |g|: from eigenvalue
    starts it converges in a step or two, and later moves are rounding.
    Returns the iterate with the smallest |g|, never one beyond the leash.
    """
    dg = ctx.deriv(mult)
    g = ctx.deriv(mult - 1)
    if not dg or not g:  # past the ladder's end (None) or the zero polynomial
        return z
    leash = 4.0 * (spread + min(eps_root ** (1.0 / mult), _CLUSTER_CAP)) + 1e-12
    cur = z
    best = z
    gv = _horner(g, z)
    best_val = abs(gv)
    for _ in range(12):
        dgv = _horner(dg, cur)
        if dgv == 0:
            break
        nxt = cur - gv / dgv
        if abs(nxt - z) > leash * (1.0 + abs(z)):
            break
        cur = nxt
        gv = _horner(g, cur)
        val = abs(gv)
        if val >= best_val:
            break
        best, best_val = cur, val
        if val == 0.0:
            break
    return best


class _Roots(tuple):
    """Pairs from roots_with_multiplicity; ``context`` is the _ClusterContext that found them."""


def roots_with_multiplicity(
    f: Poly, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[tuple[complex, int], ...]:
    """All roots of f with multiplicities, clustered and centroid-polished.

    Returns pairs (root, multiplicity) of built-in ``complex`` and ``int``,
    sorted by (real, imag); the multiplicities sum to ``f.degree``. Zeros at
    the origin are counted from the trailing coefficients. The other raw
    roots are the eigenvalues of the companion matrix that ``np.roots`` builds,
    backward stable for the coefficients; ``_cluster`` then makes every
    multiplicity decision. Roots closer together than the accuracy
    attainable for their combined multiplicity are reported as one root at
    the polished cluster centroid.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if f.degree == 0:
        return ()

    scale = f.max_coeff
    cs = [c / scale for c in f.coeffs]

    zeros_at_origin = 0
    while abs(cs[0]) <= tol.eps_trim:
        zeros_at_origin += 1
        cs = cs[1:]

    # Origin roots are decided by the coefficient test, not by clustering.
    clustered = []
    if zeros_at_origin:
        clustered.append((0j, zeros_at_origin))
    ctx = _ClusterContext(f, eps_coeff=tol.eps_trim)
    if len(cs) > 1:
        companion = np.diag(np.ones(len(cs) - 2, dtype=complex), -1)
        companion[0, :] = -np.array(cs[-2::-1]) / cs[-1]
        clustered.extend(_cluster(np.linalg.eigvals(companion).tolist(), tol.eps_root, ctx))
    roots = _Roots(sorted(clustered, key=lambda item: (item[0].real, item[0].imag)))
    roots.context = ctx
    return roots


def poly_from_roots(roots, lead: complex = 1.0) -> Poly:
    """Expand ``lead * prod (lambda - r)`` over (root, multiplicity) pairs, trimming once."""
    acc = [complex(lead)]
    for z, m in roots:
        for _ in range(m):
            acc = [a - b * z for a, b in zip([0j] + acc, acc + [0j])]
    return Poly(acc)


def _schur_cohn_outer(cs) -> bool:
    """Whether the polynomial with coefficients cs has no zero in the closed unit disc.

    Schur-Cohn (Henrici 1974, 6.8), O(m^2): exactly when |p_0| > |p_m| at the top
    degree m and likewise for p - c p*, c = p_m / conj(p_0), down to a constant.
    """
    p = [complex(c) for c in cs]
    while len(p) > 1:
        if not abs(p[0]) > abs(p[-1]):
            return False
        c = p[-1] / p[0].conjugate()
        p = [x - c * y.conjugate() for x, y in zip(p[:-1], reversed(p[1:]))]
    return True


def root_location_uncertainties(
    f: Poly, roots, eps_coeff: float = 0.0
) -> tuple[float, ...]:
    """First-order positional error bound for each computed (root, mult) pair.

    An m-fold root is pinned down as a simple zero of the (m-1)-th
    derivative, so its displacement under the rounding floor is the floor of
    that derivative divided by the m-th derivative's magnitude.
    """
    ctx = getattr(roots, "context", None)  # its derivatives serve the same f and eps_coeff
    if ctx is None or ctx.source != (f, eps_coeff):
        ctx = _ClusterContext(f, eps_coeff=eps_coeff)
    out = []
    for z, m in roots:
        dg = ctx.deriv(m)
        slope = abs(_horner(dg, z)) if dg is not None else 0.0
        out.append(ctx.residual_floor(z, max(m - 1, 0)) / slope if slope > 0.0 else math.inf)
    return tuple(out)
