"""The benchmark's workloads: inputs, one operation, and its correctness check.

Every workload is a closed loop with one caller over a pool of inputs built
at set-up. ``check`` runs outside the op's timing and returns a list of
problems (empty when the output is correct) and the op's relative error,
the largest of the errors it measured. Checks evaluate with numpy directly
from the inputs' defining data rather than through the library under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gammakit as gk
import generators as gen

ROUNDTRIP_PER_N = 40
# About 0.15% of random_spec draws meet known defects A and B or their
# relatives and fail a check; the probes report those defects. Nearly all
# have a synthesis symbol f shallower than MIN_DEPTH (min f / max f on the
# circle, where D gets zeros near the circle), the rest a royal node whose
# first-order rounding error (node_error_bound) exceeds MAX_NODE_ERROR.
MIN_DEPTH = 1e-5
MAX_NODE_ERROR = 1e-4
FACTOR_GENERIC_PER_DEGREE = 31
FACTOR_CIRCLE_PER_DEGREE = 6
# fejer_riesz returns wrong factors without raising on many Gaussian symbols
# of degree 48 and most of degree 64, so the timed tail stops at 32 and
# ``probe_degree64`` reports the defect.
FACTOR_TAIL_DEGREES = (24, 28, 32)
TRACE_PER_N = 9
TRACE_SAMPLES = 1024
TRACE_HEADER = "t,s_re,s_im,p_re,p_im,x,theta,edge_gap,b_residual"

_CIRCLE_1024 = np.exp(2j * np.pi * np.arange(1024) / 1024)
# 64 fixed points spread over the open disc (a sunflower lattice).
_DISC_64 = np.sqrt((np.arange(64) + 0.5) / 64) * np.exp(
    1j * np.arange(64) * math.pi * (3.0 - math.sqrt(5.0))
)


@dataclass(frozen=True)
class Workload:
    why: str
    default_seed: int
    build: Callable[[int], list]
    op: Callable
    check: Callable


# -- numpy evaluation helpers ------------------------------------------------


def _values(coeffs, lam):
    """Polynomial with ascending ``coeffs`` evaluated at the points ``lam``."""
    if len(coeffs) == 0:
        return np.zeros_like(lam)
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], lam)


def _reflected(d: gk.Poly, n: int) -> np.ndarray:
    """Coefficients of lambda^n conj(D(1/conj(lambda)))."""
    padded = np.zeros(n + 1, dtype=complex)
    padded[: len(d.coeffs)] = d.coeffs
    return np.conj(padded[::-1])


def _map_values(h: gk.GammaInner, lam):
    den = _values(h.D.coeffs, lam)
    return _values(h.E.coeffs, lam) / den, _values(_reflected(h.D, h.n), lam) / den


def _match_error(found, expected) -> float:
    """Largest distance in a greedy nearest matching; inf if counts differ."""
    if len(found) != len(expected):
        return math.inf
    remaining = list(expected)
    worst = 0.0
    for z in found:
        j = min(range(len(remaining)), key=lambda i: abs(z - remaining[i]))
        worst = max(worst, abs(z - remaining.pop(j)))
    return worst


# -- roundtrip ---------------------------------------------------------------


def symbol_depth(spec) -> float:
    """min f / max f on the circle for the spec's f = lambda^{-n} R + |E|^2."""
    f = _factored_gap(spec, _CIRCLE_1024)
    return float(f.min() / f.max())


def node_error_bound(spec) -> float:
    """First-order displacement of the worst royal node under rounding.

    R = 4 D D~ - E^2 is formed from terms as large as f, so its coefficients
    carry errors of about eps max f. A disc node, a simple root of R, moves
    by that over |R'|; a circle node, a double root, by the square root of
    that over |R''| / 2.
    """
    noise = 2.2e-16 * float(_factored_gap(spec, _CIRCLE_1024).max())
    worst = 0.0
    for k, sig in enumerate(spec.sigmas):
        slope = spec.t_plus
        for j, other in enumerate(spec.sigmas):
            if j != k:
                slope *= (sig - other) * (1.0 - other.conjugate() * sig)
        if slope == 0.0:
            return math.inf
        if abs(abs(sig) - 1.0) < 1e-12:
            worst = max(worst, math.sqrt(noise / abs(slope)))
        else:
            worst = max(worst, noise / abs(slope * (1.0 - abs(sig) ** 2)))
    return worst


def build_roundtrip(seed: int) -> list:
    """40 specs of each degree n = 1..10 from the random_spec stream."""
    return gen.stratified(
        gen.spec_stream(random.Random(seed)),
        lambda spec: spec.n,
        ROUNDTRIP_PER_N,
        range(1, 11),
        accept=lambda spec: symbol_depth(spec) >= MIN_DEPTH
        and node_error_bound(spec) <= MAX_NODE_ERROR,
    )


def roundtrip_op(spec):
    h = gk.synthesize(spec)
    profile = gk.royal_profile(h)
    recovered = gk.recover_spec(h)
    try:
        witness = gk.witness_non_extreme(h)
    except gk.ExtremeNoWitness:
        witness = None
    return h, profile, recovered, witness


def _factored_gap(spec, lam):
    """lambda^{-n} R + |E|^2 on the circle, from the spec's elementary factors."""
    royal = np.full(lam.shape, spec.t_plus, dtype=complex)
    for sig in spec.sigmas:
        royal *= (lam - sig) * (1.0 - sig.conjugate() * lam) / lam
    e_sq = np.full(lam.shape, spec.t * spec.t)
    for alpha in spec.alphas:
        e_sq *= np.abs((lam - alpha) * (1.0 - alpha.conjugate() * lam)) ** 2
    for tau in spec.taus:
        e_sq *= np.abs(lam - tau) ** 2
    return royal.real + e_sq


def check_roundtrip(spec, out):
    h, profile, recovered, witness = out
    problems = []
    rhs = 4.0 * np.abs(_values(h.D.coeffs, _CIRCLE_1024)) ** 2
    scale = max(1.0, float(rhs.max()))
    residual = float(np.max(np.abs(_factored_gap(spec, _CIRCLE_1024) - rhs))) / scale
    if residual > 1e-8:
        problems.append(f"factorization residual {residual:.2e}")
    if h.degree != spec.n:
        problems.append(f"degree {h.degree} != n = {spec.n}")
    errors = [residual]
    for name in ("sigmas", "alphas", "taus"):
        err = _match_error(getattr(recovered, name), getattr(spec, name))
        errors.append(err)
        if err > 1e-6:
            problems.append(f"{name} recovered {err:.2e} off")
    total = sum(nd.multiplicity for nd in profile.nodes)
    if total != h.degree:
        problems.append(f"node total {total} != degree {h.degree}")
    if 2 * profile.k > profile.n:
        if witness is not None:
            problems.append("witness produced for an extreme map")
    elif witness is None:
        problems.append("witness refused for a non-extreme map")
    else:
        _, h_plus, h_minus = witness
        s, p = _map_values(h, _DISC_64)
        s_plus, p_plus = _map_values(h_plus, _DISC_64)
        s_minus, p_minus = _map_values(h_minus, _DISC_64)
        mid = max(
            float(np.max(np.abs(0.5 * (s_plus + s_minus) - s))),
            float(np.max(np.abs(0.5 * (p_plus + p_minus) - p))),
        )
        errors.append(mid)
        if mid > 1e-8:
            problems.append(f"witness midpoint off by {mid:.2e}")
        if h_plus.E == h_minus.E:
            problems.append("witness pair is not distinct")
    return problems, max(errors)


# -- factor ------------------------------------------------------------------


def build_factor(seed: int) -> list:
    return gen.factor_pool(
        seed, FACTOR_GENERIC_PER_DEGREE, FACTOR_CIRCLE_PER_DEGREE, FACTOR_TAIL_DEGREES
    )


def factor_op(item):
    return gk.fejer_riesz(item[1])


def check_factor(item, d):
    _, f = item
    problems = []
    count = max(256, 4 * f.n)
    lam = np.exp(2j * np.pi * np.arange(count) / count)
    a = np.asarray(f.coeffs, dtype=complex)
    f_vals = (_values(a, lam) * lam ** (-f.n)).real
    peak = float(np.max(np.abs(a)))
    residual = float(np.max(np.abs(np.abs(_values(d.coeffs, lam)) ** 2 - f_vals))) / peak
    if residual > 1e-9:
        problems.append(f"relative residual {residual:.2e}")
    at_zero = d.coeffs[0] if d.coeffs else 0j
    if not (at_zero.real > 0.0 and abs(at_zero.imag) <= 1e-12 * at_zero.real):
        problems.append(f"D(0) = {at_zero}")
    if d.degree > 0:
        inner = float(np.min(np.abs(np.roots(np.asarray(d.coeffs, dtype=complex)[::-1]))))
        if inner < 1.0 - 1e-10:
            problems.append(f"root of modulus {inner:.12f} inside the disc")
    return problems, residual


# -- trace -------------------------------------------------------------------


@dataclass(frozen=True)
class TraceItem:
    text: str
    h: gk.GammaInner
    nodes: tuple


def _pole_gap(h: gk.GammaInner) -> float:
    """Distance from the unit circle to the nearest pole of h (a root of D)."""
    if h.D.degree < 1:
        return math.inf
    return float(np.min(np.abs(np.roots(np.asarray(h.D.coeffs, dtype=complex)[::-1])))) - 1.0


def build_trace(seed: int) -> list:
    """The h_nu family plus 9 pool maps of each degree 1..10 that a uniform
    trace resolves.

    Near a pole at distance delta outside the circle, p turns once within an
    arc of about delta, so a grid of TRACE_SAMPLES points loses whole turns
    of theta unless delta exceeds the grid step. Pool maps closer than that
    are skipped here; ``probe_trace_winding`` reports the defect instead.
    """
    synthesized = {}

    def resolvable(spec) -> bool:
        if symbol_depth(spec) < MIN_DEPTH:
            return False
        synthesized[spec] = gk.synthesize(spec)
        return _pole_gap(synthesized[spec]) >= 2.0 * math.pi / TRACE_SAMPLES

    specs = gen.stratified(
        gen.spec_stream(random.Random(seed)), lambda spec: spec.n, TRACE_PER_N, range(1, 11),
        accept=resolvable,
    )
    maps = gen.h_nu_family() + [synthesized[spec] for spec in specs]
    return [TraceItem(gk.serialize(h), h, gk.royal_profile(h).circle_nodes()) for h in maps]


def trace_op(item):
    h = gk.parse_gamma_inner(item.text)
    rows = gk.trace_boundary(h, TRACE_SAMPLES)
    csv = gk.trace_to_csv(rows)
    orders = [gk.boundary_flatness(h, node.location) for node in item.nodes]
    omega = gk.is_superficial(h)
    return h, rows, csv, orders, omega


def _unwinds(table, degree: int) -> bool:
    """Whether theta, continued from the last row back to t = 2 pi, gains 2 pi deg."""
    first_phase = math.atan2(table[0, 4], table[0, 3])
    last = table[-1, 6]
    closing = first_phase + 2.0 * math.pi * round((last - first_phase) / (2.0 * math.pi))
    return abs(closing - table[0, 6] - 2.0 * math.pi * degree) <= 1e-6


def _trace_table(rows) -> np.ndarray:
    return np.array(
        [
            (r.t, r.s_re, r.s_im, r.p_re, r.p_im, r.x, r.theta, r.edge_gap, r.b_residual)
            for r in rows
        ]
    )


def check_trace(item, out):
    h, rows, csv, orders, omega = out
    problems = []
    if (h.E, h.D, h.n) != (item.h.E, item.h.D, item.h.n):
        problems.append("JSON round trip changed the map")
    table = _trace_table(rows)
    if table.shape != (TRACE_SAMPLES, 9):
        return [f"trace has shape {table.shape}"], math.inf
    p_err = float(np.max(np.abs(np.hypot(table[:, 3], table[:, 4]) - 1.0)))
    b_res = float(np.max(table[:, 8]))
    if p_err > 1e-9:
        problems.append(f"|p| off the circle by {p_err:.2e}")
    if b_res > 1e-9:
        problems.append(f"b_residual {b_res:.2e}")
    if float(np.min(table[:, 7])) < -1e-9:
        problems.append("negative edge_gap")
    if not _unwinds(table, h.degree):
        problems.append("theta does not unwind by 2 pi deg")
    expected = [2 * node.multiplicity for node in item.nodes]
    if orders != expected:
        problems.append(f"flatness {orders} != {expected}")
    lines = csv.split("\n")
    if lines[0] != TRACE_HEADER or lines[-1] != "" or len(lines) != TRACE_SAMPLES + 2:
        problems.append("CSV header or line count wrong")
    else:
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        if not np.array_equal(parsed, table):
            problems.append("CSV floats do not round-trip")
    if omega is not None:
        form = abs(omega) - 1.0
        gap = _values(h.E.coeffs, _CIRCLE_1024) - (
            omega * _values(h.D.coeffs, _CIRCLE_1024)
            + omega.conjugate() * _values(_reflected(h.D, h.n), _CIRCLE_1024)
        )
        scale = 1.0 + max(h.E.max_coeff, h.D.max_coeff)
        if abs(form) > 1e-12 or float(np.max(np.abs(gap))) > 1e-9 * scale:
            problems.append("is_superficial returned a wrong omega")
    return problems, max(p_err, b_res)


WORKLOADS = {
    "roundtrip": Workload(
        "synthesize, royal_profile, recover_spec, witness on acceptance-pool specs, 40 per "
        "n = 1..10: many small root solves with even-order circle zeros, ~10 circle_extrema per op",
        gen.ROUNDTRIP_SEED, build_roundtrip, roundtrip_op, check_roundtrip,
    ),
    "factor": Workload(
        "fejer_riesz on criterion-4 symbols, circle-zero symbols and a degree 24-32 tail: the "
        "root layer and _cluster's O(d^3) dominate; circle zeros take the parity path",
        gen.FACTOR_SEED, build_factor, factor_op, check_factor,
    ),
    "trace": Workload(
        "parse, trace_boundary, CSV, flatness and is_superficial on h_nu and pool maps: "
        "pointwise circle evaluation and I/O, almost no root finding",
        1, build_trace, trace_op, check_trace,
    ),
}


# -- known-defect probes -----------------------------------------------------


def probe_defect_a() -> float:
    """1 when synthesize rejects the valid n = 23 spec (seed 26, specs[3])."""
    spec = gen.spec_pool(26, 4, n_max=26)[3]
    try:
        gk.synthesize(spec)
    except gk.GammaKitError:
        return 1.0
    return 0.0


def probe_defect_b() -> float:
    """Digits to which recover_spec returns the royal nodes under cancellation."""
    spec = gk.SynthesisSpec(
        alphas=(0.1,), taus=(1j,), sigmas=(0.5, -0.5, 0.3j), t_plus=1e-4, t=100.0, omega=1.0
    )
    try:
        recovered = gk.recover_spec(gk.synthesize(spec))
    except gk.GammaKitError:
        return 0.0
    return -math.log10(max(_match_error(recovered.sigmas, spec.sigmas), 1e-17))


def probe_degree64() -> float:
    """Digits of the degree-64 Gaussian symbol from seed 64 through fejer_riesz."""
    item = ("tail", gk.to_trig_modulus_squared(gen.gaussian_poly(random.Random(64), 64)))
    try:
        _, residual = check_factor(item, gk.fejer_riesz(item[1]))
    except gk.GammaKitError:
        return 0.0
    return -math.log10(max(residual, 1e-17))


def probe_circle_cluster() -> float:
    """Digits of fejer_riesz on |E (lambda - tau)|^2 with tau 0.003 rad from a
    root of E near the circle (E: degree-12 Gaussian from seed 1)."""
    e = gen.gaussian_poly(random.Random(1), 12)
    roots = np.roots(np.asarray(e.coeffs, dtype=complex)[::-1])
    nearest = complex(roots[np.argmin(np.abs(np.abs(roots) - 1.0))])
    tau = nearest / abs(nearest) * complex(math.cos(0.003), math.sin(0.003))
    item = ("circle", gk.to_trig_modulus_squared(e * gk.Poly([-tau, 1.0])))
    try:
        _, residual = check_factor(item, gk.fejer_riesz(item[1]))
    except gk.GammaKitError:
        return 0.0
    return -math.log10(max(residual, 1e-17))


def probe_trace_winding() -> float:
    """1 when the default trace of a map with a pole 5e-5 off the circle
    fails to unwind theta by 2 pi deg (seed 1, 27th pool spec)."""
    h = gk.synthesize(gen.spec_pool(1, 27)[26])
    table = _trace_table(gk.trace_boundary(h, TRACE_SAMPLES))
    return 0.0 if _unwinds(table, h.degree) else 1.0
