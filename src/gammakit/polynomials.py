"""Complex polynomial arithmetic, the conjugate-reciprocal involution and roots.

Polynomials are dense coefficient sequences in ascending power order. All
operations are pure; every returned polynomial is normalized by one rule:
exact trailing zeros go, and no nonzero coefficient is ever dropped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    DegreeExceedsBound,
    OddCircleZero,
    PointOutOfRegion,
    ZeroPolynomial,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig, _band_miss, _in_closed_disc, _unimodular

_EPS = 2.220446049250313e-16


@dataclass(frozen=True, init=False)
class Poly:
    """A complex polynomial; ``coeffs[i]`` multiplies ``lambda**i``.

    The zero polynomial is the empty tuple. Construction drops trailing
    coefficients that are exactly zero, however small the nonzero ones are,
    and raises :class:`BadParameter` for an infinite or NaN coefficient.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=()):
        cs = tuple(list(map(complex, coeffs)))  # tuple(map)'s resizing fills tuple free lists
        object.__setattr__(self, "coeffs", _normalized(cs))

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


def _check_int(value, name: str) -> None:
    """Raise :class:`BadParameter` unless value is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParameter(f"{name} must be an integer, not {value!r}")


def _normalized(cs):
    """Slice of the complex sequence cs that ``Poly.__init__`` keeps: non-finite entries
    raise, and trailing exact zeros (either sign in either part) go; nothing else does."""
    _check_finite(list(map(abs, cs)))
    end = len(cs)
    while end > 0 and not cs[end - 1]:
        end -= 1
    return cs[:end]


def _convolve(a, b) -> list[complex]:
    """Unnormalized product coefficients of two coefficient sequences (zeros if one is empty)."""
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
    _check_int(n, "the reflection bound n")
    if n < 0:
        raise DegreeExceedsBound(f"reflection bound must be nonnegative, got {n}")
    if f.degree > n:
        raise DegreeExceedsBound(f"degree {f.degree} exceeds reflection bound {n}")
    padded = f.padded(n + 1)
    return Poly([padded[n - k].conjugate() for k in range(n + 1)])


def _reflection_gap(f: Poly, g: Poly, n: int) -> float:
    """max_k |f_k - conj(g_{n-k})|: how far f lies from ``conj_reciprocal(g, n)``, for
    deg f, deg g <= n."""
    a, b = f.padded(n + 1), g.padded(n + 1)
    return max(abs(a[k] - b[n - k].conjugate()) for k in range(n + 1))


def is_n_symmetric(f: Poly, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when f equals its n-reflection within ``eps_residual`` slack."""
    _check_int(n, "the reflection bound n")
    if n < 0 or f.degree > n:
        return False
    return _reflection_gap(f, f, n) <= tol.eps_residual * (1.0 + f.max_coeff)


# -- elementary factors -----------------------------------------------------


def q_factor(sigma: complex, tol: ToleranceConfig = DEFAULT_TOL) -> Poly:
    """The 2-symmetric factor (lambda - sigma)(1 - conj(sigma) lambda).

    Requires sigma in the closed unit disc, up to ``eps_circle`` slack.
    """
    sigma = complex(sigma)
    if not _in_closed_disc(sigma, tol):
        miss = _band_miss("sigma", sigma, tol)
        raise PointOutOfRegion(f"sigma lies outside the closed disc: {miss}")
    return Poly([-sigma, 1.0 + abs(sigma) ** 2, -sigma.conjugate()])


def l_factor(tau: complex, tol: ToleranceConfig = DEFAULT_TOL) -> Poly:
    """The 1-symmetric factor i e^{-i theta/2} (lambda - tau) for tau = e^{i theta}.

    theta is the principal argument of tau mapped into [0, 2 pi). tau is
    snapped to exact unit modulus; squaring the result gives ``q_factor(tau)``.
    """
    unit = _unimodular(complex(tau), tol)
    if unit is None:
        raise PointOutOfRegion(f"tau is not on the unit circle: {_band_miss('tau', tau, tol)}")
    theta = cmath.phase(unit)
    if theta < 0.0:
        theta += 2.0 * math.pi
    front = 1j * cmath.exp(-0.5j * theta)
    return Poly([-front * unit, front])


# -- root finding -----------------------------------------------------------


_CLUSTER_CAP = 1e-2
_CIRCLE_REACH = 1e-4  # _ClusterContext's reach is the larger of this and eps_circle


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
    """Derivatives, residual floors and clustering scales of one polynomial under one tolerance.

    The only place a ``ToleranceConfig`` becomes clustering parameters: ``noise`` adds
    ``eps_trim``, the relative noise upstream arithmetic leaves in the coefficients (as the
    cancellation in 4 D D~ - E^2 does), which differentiation keeps; ``eps_root`` is the
    linkage and merge scale; no polish crosses ``reach`` = max(eps_circle, 1e-4); and an
    isolated root whose ``band_side`` is ``discard``, the side ``keep`` drops, stays raw.
    """

    def __init__(self, f: Poly, tol: ToleranceConfig, keep: str | None = None):
        self.noise = 4.0 * max(f.degree, 1) * _EPS + tol.eps_trim
        self.eps_root = tol.eps_root
        self.reach = max(tol.eps_circle, _CIRCLE_REACH)
        self.discard = {None: None, "disc": 1, "outside": -1}[keep]
        self._derivs = [f.coeffs]

    def band_side(self, z: complex) -> int:
        """1 or -1 when z lies farther than ``reach`` outside or inside the circle, else 0."""
        return (abs(z) - 1.0 > self.reach) - (1.0 - abs(z) > self.reach)

    def deriv(self, j: int):
        """The j-th derivative's coefficients; past the constant one, the zero polynomial [].

        The ladder is built on first use: polishing simple roots needs only
        f and f'. Rungs keep ``Poly``'s exact-zero rule, under which none is shortened.
        """
        while j >= len(self._derivs):
            self._derivs.append(_normalized([k * c for k, c in enumerate(self._derivs[-1])][1:]))
        return self._derivs[j]

    def residual_floor(self, z: complex, j: int = 0) -> float:
        """Below this, |f^{(j)}(z)| is indistinguishable from zero.

        Combines the evaluation bound and the declared coefficient noise,
        with a peak term so the floor stays meaningful near the origin.
        """
        cs = self.deriv(j)
        return self.noise * (_abs_bound(cs, z) + max(map(abs, cs), default=0.0))

    def resolvability(self, z: complex, m: int) -> float:
        """Radius below which an m-fold root at z cannot be split.

        Where the m-th Taylor coefficient is c_m, the residual stays under
        the rounding floor within |w - z| of order (floor / |c_m|)^(1/m), so
        separate approximations inside that disc carry no information.
        """
        lead = abs(_horner(self.deriv(m), z)) / math.factorial(m)
        if lead == 0.0:
            return math.inf
        return (self.residual_floor(z) / lead) ** (1.0 / m)

    def location_uncertainty(self, z: complex, m: int) -> float:
        """First-order displacement bound of a computed m-fold root at z.

        The root is a simple zero of the (m-1)-th derivative, so it moves by
        that derivative's rounding floor over the m-th derivative's modulus.
        """
        slope = abs(_horner(self.deriv(m), z))
        return self.residual_floor(z, m - 1) / slope if slope > 0.0 else math.inf

    def consistent_root(self, z: complex, m: int) -> bool:
        """Backward-error test: f and its first m-1 derivatives vanish at z."""
        for j in range(m):
            if abs(_horner(self.deriv(j), z)) > 32.0 * self.residual_floor(z, j):
                return False
        return True


def _cluster(roots, ctx: _ClusterContext):
    """Cluster raw roots into polished (root, multiplicity) pairs.

    Every linkage radius of the hypothesis walk is capped at
    ``_CLUSTER_CAP``, so no group it forms can straddle two components of
    the single-linkage graph at the cap. Each component is therefore walked
    on its own, and an isolated root, the generic case, is polished as a
    simple root without any hypothesis test, or kept raw on ``ctx.discard``'s side.
    A sweep over the sorted roots finds the linked ones, as a partner within
    the cap is within it in real part. Components keep their members in
    sorted (real, imag) order, which fixes the order of every centroid sum.
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
    accepted = [(z if ctx.band_side(z) == ctx.discard else _polish_cluster(ctx, z, 1), 1)
                for z in ordered if z not in near]
    for part in _components(len(near), lambda a, b: abs(near[a] - near[b]) <= _CLUSTER_CAP):
        accepted.extend(_cluster_component([near[a] for a in sorted(part)], ctx))
    return accepted


def _cluster_component(roots, ctx: _ClusterContext):
    """Multiplicity hypotheses over the roots of one cap-level component.

    Hypotheses are tested from high m downward. The linkage radius for a
    hypothesis combines the ``ctx.eps_root``**(1/m) heuristic with the residual
    resolvability radius at each point, capped so that genuinely separated
    roots stay apart; a linked group is accepted only when it holds at least
    m roots and the polished center passes the backward-error test that all
    derivatives below order m vanish numerically. The group's order is its
    size and its center the mean. Rejected groups fall through to smaller
    hypotheses, and each root left at the end is polished as a simple root.
    """
    pending = list(roots)
    accepted = []
    for m in range(len(pending), 1, -1):
        if m > len(pending):
            continue
        radii = [
            min(max(ctx.eps_root ** (1.0 / m), 8.0 * ctx.resolvability(z, m)), _CLUSTER_CAP)
            for z in pending
        ]

        def linked(i, j):
            return abs(pending[i] - pending[j]) <= max(radii[i], radii[j])

        still = []
        for group in _components(len(pending), linked):
            if len(group) >= m:
                polished = _polish_cluster(ctx, sum(pending[i] for i in group) / len(group),
                                           len(group))
                if ctx.consistent_root(polished, len(group)):
                    accepted.append((polished, len(group)))
                    continue
            still.extend(pending[i] for i in group)
        pending = still
    accepted.extend((_polish_cluster(ctx, z, 1), 1) for z in pending)
    return accepted


def _polish_cluster(ctx: _ClusterContext, z: complex, mult: int) -> complex:
    """Refine an m-fold root via Newton on the (m-1)-th derivative, g.

    Newton stops at the first step that does not lower |g| (a NaN or infinite
    step counts), at a zero derivative, at an exact zero or after 12 steps:
    from eigenvalue starts it converges in a step or two, and later moves are
    rounding. Returns the iterate with the smallest |g|, or the start if that
    iterate left the start's ``band_side``: no root farther than ``reach`` from
    the circle is polished to within it or across it.
    """
    dg = ctx.deriv(mult)
    g = ctx.deriv(mult - 1)
    start = z
    gv = _horner(g, z)
    best_val = abs(gv)
    for _ in range(12):
        dgv = _horner(dg, z)
        if dgv == 0:
            break
        nxt = z - gv / dgv
        gv = _horner(g, nxt)
        val = abs(gv)
        if not val < best_val:  # a NaN step stops here too
            break
        z, best_val = nxt, val
        if val == 0.0:
            break
    return z if ctx.band_side(start) in (0, ctx.band_side(z)) else start


def roots_with_multiplicity(
    f: Poly, tol: ToleranceConfig = DEFAULT_TOL, keep: str | None = None
) -> tuple[tuple[complex, int], ...]:
    """All roots of f with multiplicities, clustered and centroid-polished.

    Returns pairs (root, multiplicity) of built-in ``complex`` and ``int``,
    sorted by (real, imag); the multiplicities sum to ``f.degree``. Only the
    exactly zero low-order coefficients count as zeros at the origin. The raw
    roots are the eigenvalues of the companion matrix that ``np.roots`` builds,
    backward stable for the coefficients; ``_cluster`` then makes every
    multiplicity decision. Roots closer together than the accuracy
    attainable for their combined multiplicity are reported as one root at
    the polished cluster centroid.

    ``keep`` is the side the caller keeps: None (every root polished), the
    closed "disc" (``royal_profile``, ``_closed_disc_roots``) or the "outside"
    (``fejer_riesz``). An isolated root on the other side, farther than
    ``_ClusterContext``'s reach max(eps_circle, 1e-4), stays its raw eigenvalue.
    No polish crosses the reach, so the kept side is bit for bit what
    ``keep=None`` returns, for either circle classifier: ``_closed_disc_roots``
    for D and E, whose circle zeros may be simple, and ``partition_circle_roots``
    for R and Fejer-Riesz symbols (even order). A leading coefficient too small
    for a finite companion matrix raises ``BadParameter``.
    """
    if keep not in (None, "disc", "outside"):
        raise ValueError(f"keep must be None, 'disc' or 'outside', not {keep!r}")
    if f.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")

    scale = f.max_coeff
    cs = [c / scale for c in f.coeffs]

    # Origin roots are the exactly zero coefficients, not a clustering decision.
    zeros_at_origin = next(k for k, c in enumerate(cs) if c != 0)
    cs = cs[zeros_at_origin:]
    clustered = [(0j, zeros_at_origin)] if zeros_at_origin else []
    if len(cs) > 1:
        companion = np.diag(np.ones(len(cs) - 2, dtype=complex), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            companion[0, :] = -np.array(cs[-2::-1]) / cs[-1]
        if not np.isfinite(companion[0]).all():
            raise BadParameter(f"the leading coefficient is {abs(cs[-1]):.3g} times the largest, "
                               "too small for a finite companion matrix")
        raw = np.linalg.eigvals(companion).tolist()
        clustered.extend(_cluster(raw, _ClusterContext(f, tol, keep)))
    return tuple(sorted(clustered, key=lambda item: (item[0].real, item[0].imag)))


def _closed_disc_roots(f: Poly, tol: ToleranceConfig) -> list[tuple[complex, int, complex | None]]:
    """(root, multiplicity, unit) for f's computed roots in the closed disc, in order.

    The plain band: unit is ``_unimodular(root)``, None in the open disc. It serves D and
    E, whose circle zeros may be simple, so parity cannot confirm them.
    """
    roots = roots_with_multiplicity(f, tol, keep="disc")
    return [(z, m, _unimodular(z, tol)) for z, m in roots if _in_closed_disc(z, tol)]


@dataclass
class _CircleCluster:
    """Circle candidates merged by angle: unimodular point and total order."""

    point: complex
    order: int
    hard: bool
    members: list


def partition_circle_roots(roots, f: Poly, tol: ToleranceConfig):
    """Split computed roots into circle clusters, inside and outside roots.

    The parity-aware classifier, for R and Fejer-Riesz symbols: lambda^-n
    times either is nonnegative on the circle, so their circle zeros have even
    order (D and E take ``_closed_disc_roots``' plain band). Roots in the
    circle band (``_unimodular``) are hard circle candidates; roots within
    their estimated location uncertainty of the circle are soft candidates.
    Candidates are merged angularly (``_ClusterContext`` gives the soft band's
    reach and the merge scale) and a merged cluster counts as a genuine circle
    zero only when its total order is even. An odd cluster with a hard member
    raises ``OddCircleZero``; an odd soft cluster falls back to its members' sides.

    Returns (circle, inside, outside) where circle holds (point, order)
    pairs with unimodular points and order the full (even) zero order.
    """
    # Soft candidates lie within 8 location uncertainties of the circle and within
    # reach; testing the band and reach first spares the other roots their uncertainty.
    ctx = _ClusterContext(f, tol)
    candidates = []
    inside = []
    outside = []
    for z, m in roots:
        radius = abs(z)
        gap = abs(radius - 1.0)
        hard = _unimodular(z, tol) is not None
        if radius == 0.0:
            inside.append((z, m))
        elif hard or gap <= ctx.reach and gap <= 8.0 * ctx.location_uncertainty(z, m):
            candidates.append((z / radius, m, z, hard))
        elif radius > 1.0:
            outside.append((z, m))
        else:
            inside.append((z, m))

    clusters = []
    for snapped, m, original, hard in sorted(
        candidates, key=lambda it: (it[0].real, it[0].imag)
    ):
        for group in clusters:
            radius = min(ctx.eps_root ** (1.0 / (m + group.order)), _CLUSTER_CAP)
            if abs(snapped - group.point) <= radius:
                weighted = group.point * group.order + snapped * m
                group.point = weighted / abs(weighted)
                group.order += m
                group.hard = group.hard or hard
                group.members.append((original, m))
                break
        else:
            clusters.append(_CircleCluster(snapped, m, hard, [(original, m)]))

    circle = []
    for group in clusters:
        if group.order % 2 == 0:
            circle.append((group.point, group.order))
        elif group.hard:
            raise OddCircleZero(
                f"circle zero at {group.point:.6g} has odd order {group.order}"
            )
        else:
            for original, m in group.members:
                if abs(original) > 1.0:
                    outside.append((original, m))
                else:
                    inside.append((original, m))
    return circle, inside, outside


def poly_from_roots(roots, lead: complex = 1.0) -> Poly:
    """Expand ``lead * prod (lambda - r)`` over (root, multiplicity) pairs, normalized once."""
    acc = [complex(lead)]
    for z, m in roots:
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise BadParameter(f"a root multiplicity must be a nonnegative integer, not {m!r}")
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
