"""JSON serialization, boundary-trace export and the CSV format.

Complex numbers travel as two-element [re, im] arrays and polynomials as
ascending coefficient arrays, so every value round-trips at full binary
precision through Python's shortest round-trip float rendering.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ._floatrepr import repr_blocks
from .errors import GammaKitError, ParseError, ValidationError
from .geometry import _chart_curve
from .inner import GammaInner, eval_h, validate
from .polynomials import Poly
from .royal import NodeRegion, RoyalNode, RoyalProfile
from .spectral import TrigPoly
from .synthesis import SynthesisSpec
from .tolerances import DEFAULT_TOL, ToleranceConfig

# -- JSON encoding ------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _poly_node(p: Poly) -> list[list[float]]:
    return [_pair(c) for c in p.coeffs]


def to_jsonable(value):
    if isinstance(value, Poly):
        return _poly_node(value)
    if isinstance(value, GammaInner):
        return {"E": _poly_node(value.E), "D": _poly_node(value.D), "n": value.n}
    if isinstance(value, SynthesisSpec):
        return {
            "alphas": [_pair(a) for a in value.alphas],
            "taus": [_pair(t) for t in value.taus],
            "sigmas": [_pair(s) for s in value.sigmas],
            "t_plus": value.t_plus,
            "t": value.t,
            "omega": _pair(value.omega),
        }
    if isinstance(value, RoyalProfile):
        return {
            "nodes": [
                {
                    "location": _pair(node.location),
                    "multiplicity": node.multiplicity,
                    "region": node.region.value,
                }
                for node in value.nodes
            ],
            "n": value.n,
            "k": value.k,
        }
    if isinstance(value, TrigPoly):
        return {"n": value.n, "coeffs": [_pair(c) for c in value.coeffs]}
    raise TypeError(f"cannot serialize values of type {type(value).__name__}")


def serialize(value) -> str:
    return json.dumps(to_jsonable(value), indent=2) + "\n"


# -- JSON decoding ------------------------------------------------------------


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc


def _complex_at(node, where: str) -> complex:
    if not isinstance(node, list) or len(node) != 2:
        raise ParseError("expected a [re, im] pair", where)
    return complex(_number(node[0], f"{where}[0]"), _number(node[1], f"{where}[1]"))


def _poly_at(node, where: str) -> Poly:
    if not isinstance(node, list):
        raise ParseError("expected a coefficient array", where)
    return Poly([_complex_at(c, f"{where}[{i}]") for i, c in enumerate(node)])


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError("expected an object", where)
    if key not in doc:
        raise ParseError(f"missing {key!r}", where)
    return doc[key]


def _number(node, where: str) -> float:
    if not isinstance(node, (int, float)) or isinstance(node, bool) or not math.isfinite(node):
        raise ParseError("expected a finite number", where)
    return float(node)


def _integer(node, where: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool):
        raise ParseError("expected an integer", where)
    return node


def parse_poly(text: str) -> Poly:
    return _poly_at(_load(text), "$")


def parse_gamma_inner(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> GammaInner:
    """The map a document {"E", "D", "n"} describes, validated strictly (no zero of D on
    the closed disc) at ``tol``; a map ``validate`` rejects raises ``ValidationError``."""
    doc = _load(text)
    e = _poly_at(_field(doc, "E", "$"), "$.E")
    d = _poly_at(_field(doc, "D", "$"), "$.D")
    n = _integer(_field(doc, "n", "$"), "$.n")
    try:
        return validate(e, d, n, tol)
    except GammaKitError as exc:
        raise ValidationError(f"not a valid inner map: {exc}") from exc


def parse_spec(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> SynthesisSpec:
    doc = _load(text)
    alphas = _field(doc, "alphas", "$")
    taus = _field(doc, "taus", "$")
    sigmas = _field(doc, "sigmas", "$")
    for name, node in (("alphas", alphas), ("taus", taus), ("sigmas", sigmas)):
        if not isinstance(node, list):
            raise ParseError("expected an array", f"$.{name}")
    try:
        return SynthesisSpec(
            alphas=tuple(_complex_at(a, f"$.alphas[{i}]") for i, a in enumerate(alphas)),
            taus=tuple(_complex_at(t, f"$.taus[{i}]") for i, t in enumerate(taus)),
            sigmas=tuple(_complex_at(s, f"$.sigmas[{i}]") for i, s in enumerate(sigmas)),
            t_plus=_number(_field(doc, "t_plus", "$"), "$.t_plus"),
            t=_number(_field(doc, "t", "$"), "$.t"),
            omega=_complex_at(_field(doc, "omega", "$"), "$.omega"),
            tol=tol,
        )
    except GammaKitError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ValidationError(f"invalid synthesis spec: {exc}") from exc


def parse_royal_profile(text: str) -> RoyalProfile:
    doc = _load(text)
    nodes_doc = _field(doc, "nodes", "$")
    if not isinstance(nodes_doc, list):
        raise ParseError("expected an array", "$.nodes")
    nodes = []
    for i, entry in enumerate(nodes_doc):
        where = f"$.nodes[{i}]"
        location = _complex_at(_field(entry, "location", where), f"{where}.location")
        multiplicity = _integer(_field(entry, "multiplicity", where), f"{where}.multiplicity")
        region_name = _field(entry, "region", where)
        try:
            region = NodeRegion(region_name)
        except ValueError:
            raise ParseError("region must be 'disc' or 'circle'", f"{where}.region") from None
        if multiplicity < 1:
            raise ValidationError(f"node multiplicity must be positive at {where}")
        nodes.append(RoyalNode(location, multiplicity, region))
    n = _integer(_field(doc, "n", "$"), "$.n")
    k = _integer(_field(doc, "k", "$"), "$.k")
    if n != sum(nd.multiplicity for nd in nodes) or k != sum(
        nd.multiplicity for nd in nodes if nd.region is NodeRegion.CIRCLE
    ):
        raise ValidationError("declared (n, k) disagree with the node multiplicities")
    return RoyalProfile(nodes=tuple(nodes), n=n, k=k)


def parse_trig(text: str) -> TrigPoly:
    doc = _load(text)
    n = _integer(_field(doc, "n", "$"), "$.n")
    coeffs_doc = _field(doc, "coeffs", "$")
    if not isinstance(coeffs_doc, list):
        raise ParseError("expected an array", "$.coeffs")
    coeffs = [_complex_at(c, f"$.coeffs[{i}]") for i, c in enumerate(coeffs_doc)]
    try:
        return TrigPoly(tuple(coeffs), n)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


# -- boundary traces -----------------------------------------------------------


class TraceRow(NamedTuple):
    """One sample of t -> h(e^{it}) in chart coordinates: a named tuple in header order."""

    t: float
    s_re: float
    s_im: float
    p_re: float
    p_im: float
    x: float
    theta: float
    edge_gap: float
    b_residual: float


TRACE_HEADER = ",".join(TraceRow._fields)


class TraceTable(Sequence):
    """The rows of a trace, read-only, held as one (samples, 9) float64 array: each row is a
    TraceRow built when it is read. A slice is a table of the same array; a table compares
    equal to a table or list of equal rows, and list(rows) gives that list."""

    __slots__ = ("_values",)
    __hash__ = None

    def __init__(self, values: np.ndarray):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    # tuple.__new__ builds the row TraceRow._make would, without the length check nine columns pass.
    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceTable(self._values[i])
        return tuple.__new__(TraceRow, self._values[operator.index(i)].tolist())

    def __iter__(self):
        return map(tuple.__new__, itertools.repeat(TraceRow), zip(*self._values.T.tolist()))

    def __eq__(self, other):
        if isinstance(other, (TraceTable, list)):
            return list(self) == list(other)
        return NotImplemented


def trace_boundary(h: GammaInner, samples: int) -> TraceTable:
    """Sample the boundary curve with a continuously unwound chart angle.

    Rows sit at t_j = 2 pi j / samples. theta is the principal angle plus 2 pi
    times an integer turn count, the branch nearest the previous row's theta,
    so over one loop it gains 2 pi deg h. edge_gap = 2 - |s| measures contact
    with the band edge and b_residual = |s - conj(s) p| distinguished-boundary
    fidelity. The rows come as a TraceTable, built one by one as they are read.
    """
    try:
        samples = operator.index(samples)  # a fractional count leaves the loop open
    except TypeError:
        samples = 0
    if samples < 16:
        raise ValueError("samples must be an integer of at least 16")
    ts = 2.0 * math.pi * np.arange(samples) / samples
    s, p = eval_h(h, np.exp(1j * ts))
    x, theta = _chart_curve(s, p, h.tol)
    a, b, c, d = s.real, s.imag, p.real, p.imag
    # |s - conj(s) p| in real arithmetic rounds as Python's complex arithmetic does.
    twist = np.hypot(a - (a * c + b * d), b - (a * d - b * c))
    values = np.column_stack((ts, a, b, c, d, x, theta, 2.0 - np.hypot(a, b), twist))
    values.flags.writeable = False
    return TraceTable(values)


def trace_to_csv(rows) -> str:
    """TRACE_HEADER and a newline, then one line per row: repr(float(field)) of each field,
    comma-separated, each line ending in a newline, so a numpy scalar is written as a float.
    A row without nine fields raises TypeError; every field goes through float(), so one that
    float() rejects raises as float() does. A TraceTable renders from its array, with no row
    read: the same bytes as list(rows)."""
    width = len(TraceRow._fields)
    if isinstance(rows, TraceTable):
        values = rows._values.ravel()  # row order: a view, or a copy of a strided slice
    else:
        rows = list(rows)
        if not {width}.issuperset(map(len, rows)):
            raise TypeError(f"every trace row needs {width} fields")
        fields = map(float, itertools.chain.from_iterable(rows))
        values = np.fromiter(fields, float, width * len(rows))
    return TRACE_HEADER + "\n" + "".join(repr_blocks(values, width))
