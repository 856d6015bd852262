"""Span tracer that wraps gammakit functions from outside the package.

Each traced function is replaced, by identity, in every loaded ``gammakit``
namespace that binds it (the package root included), so calls between
modules are seen as well as the benchmark's own calls. A function that a
later version removes or renames is simply not wrapped and reports zero.
Spans nest: a span's self time is its duration minus the durations of the
spans opened directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

TRACED = (
    ("polynomials", "roots_with_multiplicity"),
    ("spectral", "fejer_riesz"),
    ("spectral", "circle_extrema"),
    ("spectral", "partition_circle_roots"),
    ("inner", "validate"),
    ("inner", "eval_h"),
    ("royal", "royal_polynomial"),
    ("royal", "royal_profile"),
    ("royal", "boundary_flatness"),
    ("royal", "is_superficial"),
    ("synthesis", "synthesize"),
    ("synthesis", "recover_spec"),
    ("synthesis", "witness_non_extreme"),
    ("io", "parse_gamma_inner"),
    ("io", "trace_boundary"),
    ("io", "trace_to_csv"),
    ("geometry", "mobius_chart"),
)

PACKAGE = "gammakit"
OP = "op"
_ROOTS = "polynomials.roots_with_multiplicity"
_EXTREMA = "spectral.circle_extrema"
_WITNESS = "synthesis.witness_non_extreme"


class _Stat:
    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    """Collects per-function call counts, self time and raised exceptions."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": _Stat() for mod, fn in TRACED}
        self.stats[OP] = _Stat()
        self.op_total_s = 0.0
        self.roots_degree = 0
        self.witness_extrema = 0
        self.witnesses = 0
        self._stack = []
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ---------------------------------------------------------------

    def _push(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, ok: bool) -> float:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        stat = self.stats[frame[0]]
        stat.calls += 1
        stat.self_s += duration - frame[2]
        if not ok:
            stat.raised += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _ROOTS and args:
                self.roots_degree += args[0].degree
            elif name == _EXTREMA and self._stack and self._stack[-1][0] == _WITNESS:
                self.witness_extrema += 1
            frame = self._push(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._pop(frame, ok)
            if name == _WITNESS:
                self.witnesses += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def op_span(self):
        """The top-level span of one benchmark operation."""
        frame = self._push(OP)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.op_total_s += self._pop(frame, ok)

    # -- report --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation figures for every traced function, zero if never called."""
        ops = max(self.stats[OP].calls, 1)
        out = {}
        for mod, fn in TRACED:
            stat = self.stats[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.calls_per_op"] = stat.calls / ops
            out[f"{mod}.{fn}.self_ms_per_op"] = 1e3 * stat.self_s / ops
        out["op.self_ms_per_op"] = 1e3 * self.stats[OP].self_s / ops
        out[f"{_ROOTS}.degree_per_op"] = self.roots_degree / ops
        for name in ("inner.validate", "spectral.fejer_riesz", "synthesis.synthesize"):
            out[f"{name}.raised"] = float(self.stats[name].raised)
        out[f"{_WITNESS}.extrema_accept_ratio"] = (
            self.witnesses / self.witness_extrema if self.witness_extrema else 0.0
        )
        return out
