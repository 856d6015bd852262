import cmath
import concurrent.futures
import dataclasses
import decimal
import fractions
import itertools
import json
import math
import pickle
import random
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gammakit import (
    NotOnTorusFiber,
    ParseError,
    Poly,
    SynthesisSpec,
    ToleranceConfig,
    TrigPoly,
    ValidationError,
    eval_h,
    geodesic,
    h_nu,
    mobius_chart,
    parse_gamma_inner,
    parse_poly,
    parse_royal_profile,
    parse_spec,
    parse_trig,
    royal_profile,
    serialize,
    synthesize,
    trace_boundary,
    trace_to_csv,
)
from gammakit import _floatrepr
from gammakit.cli import cli_dispatch
from gammakit.geometry import _chart_curve
from gammakit.io import TRACE_HEADER, TraceRow, TraceTable, to_jsonable


def test_poly_serialization_round_trip():
    p = Poly([1, 2j])
    text = serialize(p)
    assert json.loads(text) == [[1.0, 0.0], [0.0, 2.0]]
    assert parse_poly(text).coeffs == p.coeffs


def test_gamma_inner_round_trip_exact():
    h = h_nu(0, 0.5)
    back = parse_gamma_inner(serialize(h))
    assert back.E.coeffs == h.E.coeffs
    assert back.D.coeffs == h.D.coeffs
    assert back.n == h.n


def test_full_precision_round_trip():
    value = 0.1 + 0.2  # not representable in short decimal
    p = Poly([value, 1])
    assert parse_poly(serialize(p)).coeffs[0] == value


def test_spec_round_trip_and_missing_field():
    from helpers import random_spec
    import random

    spec = random_spec(random.Random(0), n_max=5)
    back = parse_spec(serialize(spec))
    assert back.sigmas == spec.sigmas
    assert back.t == spec.t and back.t_plus == spec.t_plus

    doc = json.loads(serialize(spec))
    del doc["t"]
    with pytest.raises(ParseError):
        parse_spec(json.dumps(doc))


def test_profile_round_trip():
    profile = royal_profile(h_nu(1, 0.5))
    back = parse_royal_profile(serialize(profile))
    assert back == profile


def test_trig_round_trip():
    f = TrigPoly.from_half_spectrum([2, 1j])
    back = parse_trig(serialize(f))
    assert back.coeffs == f.coeffs and back.n == f.n


def test_profile_validation_rejects_wrong_counts():
    profile = royal_profile(h_nu(0, 0.5))
    doc = json.loads(serialize(profile))
    doc["k"] = 2
    with pytest.raises(ValidationError):
        parse_royal_profile(json.dumps(doc))


def test_parse_errors_carry_location():
    with pytest.raises(ParseError):
        parse_poly("[[1, 2,]  ")
    with pytest.raises(ParseError):
        parse_poly('[["x", 0]]')
    with pytest.raises(ParseError):
        parse_poly("[[1, NaN]]")
    with pytest.raises(ParseError):
        parse_gamma_inner('{"E": [], "n": 1}')


def test_parse_validation_errors():
    with pytest.raises(ValidationError):
        parse_gamma_inner('{"E": [[3.0, 0.0]], "D": [[1.0, 0.0]], "n": 1}')
    with pytest.raises(ValidationError):
        parse_spec('{"alphas": [], "taus": [], "sigmas": [[0.0, 0.0]],'
                   ' "t_plus": 1.0, "t": 1.0, "omega": [1.0, 0.0]}')


def test_trace_rows_h0():
    h = h_nu(0, 0.5)
    rows = trace_boundary(h, 16)
    assert len(rows) == 16
    at_pi = rows[8]
    assert at_pi.t == pytest.approx(math.pi)
    assert at_pi.edge_gap == pytest.approx(0.0, abs=1e-12)
    assert max(r.b_residual for r in rows) <= 1e-9
    assert all(abs(r.x) <= 1 + 1e-9 for r in rows)


def test_trace_min_gap_geodesic():
    rows = trace_boundary(geodesic(0.5), 1024)
    assert min(r.edge_gap for r in rows) == pytest.approx(1.0, abs=1e-6)


def test_trace_theta_winding_counts_degree():
    import cmath
    from gammakit import mobius_chart

    for h in (h_nu(0, 0.5), h_nu(1, 0.3), geodesic(0.2)):
        rows = trace_boundary(h, 512)
        s, p = h.eval(1.0)
        _, theta_close = mobius_chart(s, p, rows[-1].theta, h.tol)
        winding = (theta_close - rows[0].theta) / (2 * math.pi)
        assert winding == pytest.approx(h.degree)


def _trace_maps():
    """h_nu(0..3) and a synthesized map of degree 10."""
    spec = SynthesisSpec(
        alphas=(0.3 + 0.2j, -0.4j, 0.5),
        taus=(1j, -1, cmath.exp(0.5j), cmath.exp(2j)),
        sigmas=tuple(cmath.exp(1j * a) for a in (0.3, 1.2, 2.5, 4.0))
        + (0.2, -0.3 + 0.4j, 0.6j, -0.5 - 0.2j, 0.1 - 0.6j, 0.45 + 0.45j),
        t_plus=1.0,
        t=0.8,
        omega=cmath.exp(0.7j),
    )
    maps = [h_nu(nu, 0.5) for nu in range(4)] + [synthesize(spec)]
    assert maps[-1].degree == 10
    return maps


def test_trace_matches_pointwise_eval():
    # At 32 samples the degree-8 and degree-10 maps turn theta by up to
    # nearly pi per row, so the turn count meets rows where a wrong branch
    # is easy to pick.
    for h, samples in itertools.product(_trace_maps(), (256, 32)):
        theta = 0.0
        for row in trace_boundary(h, samples):
            s, p = eval_h(h, cmath.exp(1j * row.t))
            x, theta = mobius_chart(s, p, theta, h.tol)
            assert round((row.theta - theta) / (2 * math.pi)) == 0
            expected = (s.real, s.imag, p.real, p.imag, x, theta, 2.0 - abs(s),
                        abs(s - s.conjugate() * p))
            found = (row.s_re, row.s_im, row.p_re, row.p_im, row.x, row.theta,
                     row.edge_gap, row.b_residual)
            assert max(abs(a - b) for a, b in zip(found, expected)) <= 1e-12


@dataclasses.dataclass(frozen=True)
class _DataclassRow:
    t: float
    s_re: float
    s_im: float
    p_re: float
    p_im: float
    x: float
    theta: float
    edge_gap: float
    b_residual: float


def _dataclass_trace(h, samples):
    """trace_boundary as it stood when rows were frozen dataclasses."""
    ts = 2.0 * math.pi * np.arange(samples) / samples
    s, p = eval_h(h, np.exp(1j * ts))
    x, theta = _chart_curve(s, p, h.tol)
    a, b, c, d = s.real, s.imag, p.real, p.imag
    twist = np.hypot(a - (a * c + b * d), b - (a * d - b * c))
    columns = (ts, a, b, c, d, x, theta, 2.0 - np.hypot(a, b), twist)
    return [_DataclassRow(*row) for row in zip(*(col.tolist() for col in columns))]


def test_trace_row_contract():
    assert list(TraceRow._fields) == TRACE_HEADER.split(",")
    assert [f.name for f in dataclasses.fields(_DataclassRow)] == list(TraceRow._fields)
    row = TraceRow(t=0.5, s_re=1.0, s_im=-0.0, p_re=1.0, p_im=0.0, x=0.25, theta=3.0,
                   edge_gap=1.0, b_residual=0.0)
    assert row == TraceRow(0.5, 1.0, -0.0, 1.0, 0.0, 0.25, 3.0, 1.0, 0.0)
    assert (row.t, row.theta, row.b_residual) == (0.5, 3.0, 0.0)
    with pytest.raises(AttributeError):
        row.theta = 1.0
    for h, samples in itertools.product(_trace_maps(), (16, 1024)):
        rows = trace_boundary(h, samples)
        assert all(type(r) is TraceRow for r in rows)
        # repr compares bit for bit, the sign of zero included.
        assert [repr(tuple(r)) for r in rows] == [
            repr(dataclasses.astuple(r)) for r in _dataclass_trace(h, samples)
        ]


_CUTS = (slice(None, 0), slice(5, None), slice(None, None, 3), slice(None, None, -1))


def test_trace_table_reads_like_the_list_it_replaces():
    rows = trace_boundary(h_nu(2, 0.5), 64)
    listed = list(rows)
    assert len(rows) == len(listed) == 64
    for i in (0, -1, np.int64(3), True):
        assert type(rows[i]) is TraceRow
        assert repr(rows[i]) == repr(listed[i])  # bit for bit, the sign of zero included
    with pytest.raises(IndexError):
        rows[64]
    with pytest.raises(TypeError):
        rows[1.0]
    with pytest.raises(TypeError):
        rows[0] = listed[0]
    with pytest.raises(TypeError):
        del rows[0]
    for cut in _CUTS:
        assert type(rows[cut]) is TraceTable
        assert list(rows[cut]) == listed[cut]
    assert rows == listed and listed == rows and rows == trace_boundary(h_nu(2, 0.5), 64)
    assert rows != tuple(rows)
    other = trace_boundary(h_nu(1, 0.5), 64)
    assert rows != other and rows != list(other) and list(other) != rows
    with pytest.raises(TypeError):
        hash(rows)
    back = pickle.loads(pickle.dumps(rows))
    assert type(back) is TraceTable and back == rows


def test_trace_table_renders_from_its_array_alone(monkeypatch):
    # 2,049 rows render as three blocks, the last of one row; the strided slices copy.
    tables = [trace_boundary(h, samples)
              for h, samples in itertools.product(_trace_maps(), (16, 1024, 2049))]
    tables += [table[cut] for table in tables for cut in _CUTS]
    expected = [trace_to_csv(list(table)).split("\n") for table in tables]
    empty = tables[0][:0]

    def unread(*args):
        raise AssertionError("a table was rendered from its rows")

    monkeypatch.setattr(TraceTable, "__getitem__", unread)
    monkeypatch.setattr(TraceTable, "__iter__", unread)
    assert [trace_to_csv(table).split("\n") for table in tables] == expected
    assert trace_to_csv(empty) == TRACE_HEADER + "\n"


def _reference_csv(rows) -> str:
    columns = TRACE_HEADER.split(",")
    lines = [TRACE_HEADER] + [",".join(repr(getattr(row, c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def test_trace_csv_is_repr_of_every_field():
    for h in _trace_maps():
        rows = trace_boundary(h, 64)
        assert trace_to_csv(rows).split("\n") == _reference_csv(rows).split("\n")
    signed = [TraceRow(-0.0, 0.0, -0.0, 1.0, -0.0, -0.0, 0.0, 2.0, -0.0),
              TraceRow(1e-300, -1.5e-17, 3.0, 0.1 + 0.2, -1e16, 2.0 ** 0.5, 1e300, 5e-324, 1.0)]
    text = trace_to_csv(signed)
    assert text == _reference_csv(signed)
    assert text.split("\n")[1] == "-0.0,0.0,-0.0,1.0,-0.0,-0.0,0.0,2.0,-0.0"
    assert trace_to_csv([]) == TRACE_HEADER + "\n"


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.lists(st.tuples(*[st.floats()] * 9).map(TraceRow._make), max_size=4))
@example([TraceRow(-0.0, 0.0, 5e-324, -2.2e-308, math.inf, -math.inf, math.nan, 1e308, -1.0)])
def test_trace_csv_round_trips_any_float(rows):
    text = trace_to_csv(rows)
    assert text == _reference_csv(rows)
    for row, line in zip(rows, text.split("\n")[1:-1]):
        for value, field in zip(row, line.split(",")):
            back = float(field)
            if math.isnan(value):
                assert math.isnan(back)
            else:
                assert struct.pack("<d", back) == struct.pack("<d", value)


def _layout_cells():
    """For each decimal point position p (value 0.DIGITS 10^p) from -3 to 16, where repr
    writes fixed form, and six beyond (exponent form, 2- and 3-digit exponents), and each
    count of 1 to 17 significant digits: a value of that layout, in both signs."""
    rng = random.Random(20240214)
    values = []
    for point in [*range(-3, 17), -4, 17, -99, 100, -300, 300]:
        for count in range(1, 18):
            cell = None
            while cell != (point, count):
                value = float(f"0.{rng.randrange(10 ** (count - 1), 10 ** count)}e{point}")
                text = decimal.Decimal(repr(value))
                cell = (text.adjusted() + 1, len(text.normalize().as_tuple().digits))
            values += [value, -value]
    return values


def test_trace_csv_matches_repr_at_scale():
    # The vectorized formatter against repr on random bit patterns (nan payloads and
    # subnormals included), every power of two, every power of ten of either sign,
    # the smallest subnormals' multiples, the fixed/exponent layout switch points, the
    # values around 2**53 and every layout of repr (decimal point and digit count).
    bits = np.random.default_rng(20240214).integers(0, 2**64, 200_007, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [sign * 10.0**k for k in range(-323, 309) for sign in (1.0, -1.0)]
    values += [k * 5e-324 for k in range(1, 2000)]
    values += [0.0001, 0.00011, 1e-05, 9999999999999998.0, 1e15, 1e16]
    values += [2.0**53 + 1, 2.0**53 - 1, 2.0**52 + 1, sys.float_info.max, sys.float_info.min]
    values += [math.nan, math.inf, -math.inf, 0.0, -0.0]
    values += _layout_cells()
    values += [0.5] * (-len(values) % 9)
    rows = [TraceRow._make(values[i:i + 9]) for i in range(0, len(values), 9)]
    assert trace_to_csv(rows) == _reference_csv(rows)


def test_trace_csv_writes_fields_as_floats():
    # numpy 2 scalars repr as np.float64(0.5); the CSV holds repr(float(field)).
    assert trace_to_csv([(np.float64(0.5),) * 9]).split("\n")[1] == ",".join(["0.5"] * 9)
    row = (np.float32(0.1), np.int64(3), 7, True, np.float64(-0.0), np.float16(1.5),
           np.float64(np.nan), 2.5, np.float64(1e-300))
    expected = ",".join(repr(float(field)) for field in row)
    assert expected.startswith("0.10000000149011612,3.0,7.0,1.0,-0.0,1.5,nan,2.5,")
    assert trace_to_csv([row]) == TRACE_HEADER + "\n" + expected + "\n"
    for rows in ([(0.5,) * 8], [(0.5,) * 10], [(0.5,) * 9, (0.5,) * 8]):
        with pytest.raises(TypeError):
            trace_to_csv(rows)
    with pytest.raises(ValueError):
        trace_to_csv([("x",) + (0.5,) * 8])
    with pytest.raises(TypeError):
        trace_to_csv([(None,) + (0.5,) * 8])


def test_trace_csv_converts_every_field_as_float_does():
    # Every field goes through float(): what it rejects raises, even where numpy would convert.
    fields = ["1.5", " -2.25e-3\n", decimal.Decimal("0.1"), fractions.Fraction(1, 3),
              np.float32(0.1), True, False, 7, -(2**64) - 1, np.int64(-3), "-inf", math.inf]
    rows = [tuple(fields[:9]), tuple(fields[9:]) + (0.5,) * 6]
    expected = "".join(",".join(repr(float(f)) for f in row) + "\n" for row in rows)
    assert trace_to_csv(rows) == TRACE_HEADER + "\n" + expected
    with_nan = TRACE_HEADER + "\n" + expected + ",".join(["nan"] * 9) + "\n"
    assert trace_to_csv(rows + [("nan",) * 9]) == with_nan
    for bad in (None, [1.0], np.datetime64(1, "s"), np.timedelta64(5, "s")):
        for at in (0, 8):
            row = [0.25] * 9
            row[at] = bad
            with pytest.raises(TypeError):
                trace_to_csv([(0.5,) * 9, tuple(row)])


def test_trace_csv_renders_in_parallel_threads():
    # Each call renders in a workspace of its own, so threads rendering at once share none.
    traces = [trace_boundary(h, 1024 + 16 * i) for i, h in enumerate(_trace_maps()[1:])]
    lengths = (16, 512, None, None, None)
    start = threading.Barrier(len(traces), timeout=60)

    def render(rows):
        start.wait()
        return [trace_to_csv(rows[:length]) for length in lengths]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between numpy calls as often as possible
    try:
        with concurrent.futures.ThreadPoolExecutor(len(traces)) as pool:
            texts = [job.result(timeout=60) for job in [pool.submit(render, r) for r in traces]]
    finally:
        sys.setswitchinterval(interval)
    for rows, text in zip(traces, texts):  # lists of lines keep a failure's diff short
        expected = [_reference_csv(rows[:length]).split("\n") for length in lengths]
        assert [t.split("\n") for t in text] == expected


def test_trace_csv_leaves_no_stale_bytes():
    # Each call's fresh np.empty can hand back memory an earlier render freed, still
    # holding its bytes, so every render must overwrite whatever it reads.
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e100]
    marked = [list(row) for row in trace_boundary(h_nu(3, 0.5), 1024)]
    marked[0][:6], marked[-1][3:] = special, special
    traces = [trace_boundary(h_nu(2, 0.5), 1025), trace_boundary(h_nu(1, 0.5), 16), marked]
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        texts = list(pool.map(trace_to_csv, traces))
    for rows, text in zip(traces, texts):
        assert text.split("\n") == _reference_csv(map(TraceRow._make, rows)).split("\n")


def test_trace_csv_reentered_mid_render(monkeypatch):
    # A render reached again mid-render, as from a finalizer between two numpy calls,
    # renders in a workspace of its own and leaves the outer render intact.
    outer, inner = trace_boundary(h_nu(3, 0.5), 1024), trace_boundary(h_nu(1, 0.5), 1024)
    trace_to_csv(outer)
    shortest, seen = _floatrepr._shortest, []

    def reentering(*args):
        digits = shortest(*args)
        if not seen:  # once: the inner render comes through here too
            seen.append(None)
            seen[0] = trace_to_csv(inner)
        return digits

    monkeypatch.setattr(_floatrepr, "_shortest", reentering)
    assert trace_to_csv(outer).split("\n") == _reference_csv(outer).split("\n")
    assert seen[0].split("\n") == _reference_csv(inner).split("\n")


def test_trace_csv_render_keeps_nothing_and_peaks_low():
    # A render allocates one workspace for its call and frees it on return, so a thread
    # that has not rendered before keeps nothing afterwards. The peak holds the workspace
    # (about 1.3 MB for 1,024 rows), the input array and the output string.
    rows = trace_boundary(h_nu(3, 0.5), 1024)
    trace_to_csv(rows)  # numpy caches its loops for these arrays on a first call

    def measure():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace_to_csv(rows)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept - before, peak

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        kept, peak = pool.submit(measure).result(timeout=60)
    assert kept < 4 * 1024
    assert peak < 2 * 1024 * 1024


def _near_pole_map():
    """The 27th random_spec(Random(1)) draw: degree 10, a pole 5.02e-5 outside the circle."""
    from helpers import random_spec

    rng = random.Random(1)
    for _ in range(26):
        random_spec(rng)
    return synthesize(random_spec(rng))


def _turns(h, samples):
    """Turns theta gains over one loop of the trace, closed back at t = 2 pi."""
    rows = trace_boundary(h, samples)
    s, p = h.eval(1.0)
    _, theta_close = mobius_chart(s, p, rows[-1].theta, h.tol)
    return (theta_close - rows[0].theta) / (2 * math.pi)


def test_trace_near_pole_unwinds_on_a_fine_grid():
    h = _near_pole_map()
    assert h.degree == 10
    assert _turns(h, 131072) == pytest.approx(10)


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 4): p turns once within an arc of about the pole's "
    "distance 5e-5 from the circle, so a 1,024-sample grid loses whole turns of theta",
)
def test_trace_near_pole_unwinds_on_the_default_grid():
    h = _near_pole_map()
    assert _turns(h, 1024) == pytest.approx(h.degree)


def test_trace_off_fiber_reports_deviation():
    # With eps_circle at 1e-300, rounding alone puts |p| off the fiber.
    h = h_nu(1, 0.3, ToleranceConfig(eps_circle=1e-300))
    with pytest.raises(NotOnTorusFiber) as info:
        trace_boundary(h, 1024)
    match = re.search(r"\|\|p\| - 1\| = (\S+);", str(info.value))
    assert match and 0.0 < float(match.group(1)) < 1e-12


def test_trace_csv_format():
    h = h_nu(0, 0.5)
    text = trace_to_csv(trace_boundary(h, 16))
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER == "t,s_re,s_im,p_re,p_im,x,theta,edge_gap,b_residual"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[0]) == 0.0


def test_trace_requires_enough_samples():
    # 16.5 samples would leave the loop open at t = 6.09, so theta could not unwind.
    for samples in (8, 16.5, np.float64(16.5)):
        with pytest.raises(ValueError):
            trace_boundary(h_nu(0, 0.5), samples)
    assert len(trace_boundary(h_nu(0, 0.5), np.int64(16))) == 16


@pytest.mark.parametrize("samples", ["1024", 1024.0, np.float64(64.0), fractions.Fraction(64),
                                     decimal.Decimal(64), None, True])
def test_trace_rejects_a_sample_count_that_is_not_an_integer(samples):
    with pytest.raises(ValueError, match="samples must be an integer of at least 16"):
        trace_boundary(h_nu(0, 0.5), samples)


@pytest.mark.parametrize("samples", [np.int64(64), np.int32(64), np.uint16(64)])
def test_trace_takes_any_integer_sample_count(samples):
    assert trace_boundary(h_nu(0, 0.5), samples) == trace_boundary(h_nu(0, 0.5), 64)


# -- command line -------------------------------------------------------------


def test_cli_membership(capsys):
    assert cli_dispatch(["membership", "--s", "0,0", "--p", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "interior"

    assert cli_dispatch(["membership", "--s", "2,0", "--p", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "distinguished-boundary"


def test_cli_example_analyze(tmp_path, capsys):
    target = tmp_path / "h1.json"
    assert cli_dispatch(["example", "--family", "h-nu", "--nu", "1", "--r", "0.5",
                         "--out", str(target)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["analyze", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == [4, 3]
    assert payload["s_extreme"] is True
    assert payload["degree"] == 4
    assert payload["superficial"] is None


def test_cli_analyze_royal_variety(tmp_path, capsys):
    # h = (2 lambda, lambda^2) lies in the royal variety s^2 = 4p: no type to report
    target = tmp_path / "variety.json"
    target.write_text('{"E": [[0,0],[2,0]], "D": [[1,0]], "n": 2}')
    assert cli_dispatch(["analyze", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["royal_variety"] is True
    assert "type" not in payload


def test_cli_synthesize_trace_factorize(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "alphas": [],
        "taus": [[1.0, 0.0]],
        "sigmas": [[0.0, 0.0]],
        "t_plus": 1.0,
        "t": 0.7071067811865475,
        "omega": [1.0, 0.0],
    }))
    out = tmp_path / "h.json"
    assert cli_dispatch(["synthesize", "--spec", str(spec_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 1
    assert doc["D"][0][0] == pytest.approx((1 + math.sqrt(3)) / 4)

    csv_file = tmp_path / "trace.csv"
    assert cli_dispatch(["trace", str(out), "--samples", "64", "--out", str(csv_file)]) == 0
    lines = csv_file.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER and len(lines) == 65

    trig_file = tmp_path / "trig.json"
    trig_file.write_text(json.dumps({"n": 1, "coeffs": [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]}))
    d_file = tmp_path / "d.json"
    assert cli_dispatch(["factorize", "--trig", str(trig_file), "--out", str(d_file)]) == 0
    coeffs = json.loads(d_file.read_text())
    assert coeffs[0][0] == pytest.approx(1.0) and coeffs[1][0] == pytest.approx(1.0)


def test_cli_pipeline_synthesize_then_analyze(tmp_path, capsys):
    spec_doc = {
        "alphas": [[0.3, 0.2]],
        "taus": [[0.0, 1.0]],
        "sigmas": [[0.5, 0.0], [-1.0, 0.0], [0.1, -0.4]],
        "t_plus": 2.0,
        "t": -1.3,
        "omega": [math.cos(0.7), math.sin(0.7)],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_doc))
    out = tmp_path / "h.json"
    assert cli_dispatch(["synthesize", "--spec", str(spec_file), "--out", str(out)]) == 0
    assert cli_dispatch(["analyze", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 3
    assert payload["type"] == [3, 1]
    reported = [complex(*nd["location"]) for nd in payload["nodes"]]
    for target in (0.5, -1.0, 0.1 - 0.4j):
        assert min(abs(z - target) for z in reported) < 1e-6


def test_cli_witness(tmp_path, capsys):
    h_file = tmp_path / "h.json"
    assert cli_dispatch(["example", "--family", "h-nu", "--nu", "0", "--r", "0.5",
                         "--out", str(h_file)]) == 0
    capsys.readouterr()
    plus = tmp_path / "plus.json"
    minus = tmp_path / "minus.json"
    assert cli_dispatch(["witness", str(h_file), "--out-plus", str(plus),
                         "--out-minus", str(minus)]) == 0
    t = json.loads(capsys.readouterr().out)["t"]
    assert 0 < t <= 1
    hp = parse_gamma_inner(plus.read_text())
    hm = parse_gamma_inner(minus.read_text())
    h = parse_gamma_inner(h_file.read_text())
    mid = [0.5 * (a + b) for a, b in zip(hp.E.padded(3), hm.E.padded(3))]
    assert max(abs(a - b) for a, b in zip(mid, h.E.padded(3))) < 1e-12


def test_cli_witness_extreme_exits_one(tmp_path, capsys):
    h_file = tmp_path / "extreme.json"
    cli_dispatch(["example", "--family", "h-nu", "--nu", "1", "--out", str(h_file)])
    capsys.readouterr()
    code = cli_dispatch(["witness", str(h_file), "--out-plus", str(tmp_path / "p.json"),
                         "--out-minus", str(tmp_path / "m.json")])
    assert code == 1
    assert "ExtremeNoWitness" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [(["--help"], 0, "out", "usage: gammakit"), (["analyze", "missing.json"], 1, "err", "io error")],
    ids=["help", "missing-file"],
)
def test_cli_help_and_missing_file(tmp_path, monkeypatch, capsys, argv, code, stream, text):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(argv) == code
    assert text in getattr(capsys.readouterr(), stream)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli_dispatch(["analyze", str(bad)]) == 2
    capsys.readouterr()

    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"E": [[3.0, 0.0]], "D": [[1.0, 0.0]], "n": 1}')
    assert cli_dispatch(["analyze", str(invalid)]) == 1
    capsys.readouterr()

    assert cli_dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli_dispatch(["membership", "--s", "oops", "--p", "0,0"]) == 2
    capsys.readouterr()
    for s_arg, p_arg in (("nan", "0"), ("1e400,0", "0"), ("0,0", "0,-inf")):
        assert cli_dispatch(["membership", "--s", s_arg, "--p", p_arg]) == 2
        assert "expected finite RE or RE,IM" in capsys.readouterr().err
    assert cli_dispatch(["example", "--family", "geodesic", "--beta", "nan",
                         "--out", str(tmp_path / "g.json")]) == 2
    capsys.readouterr()
    good = tmp_path / "h0.json"
    assert cli_dispatch(["example", "--family", "h-nu", "--out", str(good)]) == 0
    assert cli_dispatch(["trace", str(good), "--samples", "8",
                         "--out", str(tmp_path / "t.csv")]) == 2
    capsys.readouterr()


def test_cli_tolerance_overrides(tmp_path, capsys, monkeypatch):
    # bogus tolerance value is a usage error
    assert cli_dispatch(["--tol", "eps_root=x", "membership", "--s", "0,0", "--p", "0,0"]) == 2
    capsys.readouterr()
    assert cli_dispatch(["--tol", "nope=1", "membership", "--s", "0,0", "--p", "0,0"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --tol expects KEY=VAL with KEY in "
        "['circle_samples', 'eps_circle', 'eps_residual', 'eps_root', 'eps_trim']\n"
    )
    assert cli_dispatch(["--tol", "circle_samples=1e3", "membership", "--s", "0,0",
                         "--p", "0,0"]) == 2
    assert "bad value for --tol circle_samples: '1e3'" in capsys.readouterr().err

    # an infinite tolerance would accept E = 3 lambda, D = 1 (|s(1)| = 3, outside Gamma)
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "E": [[0, 0], [3, 0], [0, 0]], "D": [[1, 0]]}')
    assert cli_dispatch(["analyze", str(bad)]) == 1
    capsys.readouterr()
    assert cli_dispatch(["--tol", "eps_residual=inf", "analyze", str(bad)]) == 2
    assert "eps_residual must be finite" in capsys.readouterr().err
    with monkeypatch.context() as env:
        env.setenv("GAMMAKIT_TOL_EPS_RESIDUAL", "inf")
        assert cli_dispatch(["analyze", str(bad)]) == 2
    assert "eps_residual must be finite" in capsys.readouterr().err
    with monkeypatch.context() as env:
        env.setenv("GAMMAKIT_TOL_EPS_ROOT", "x")
        assert cli_dispatch(["membership", "--s", "0,0", "--p", "0,0"]) == 2
    assert "bad value for GAMMAKIT_TOL_EPS_ROOT: 'x'" in capsys.readouterr().err
    assert cli_dispatch(["--tol", "eps_circle=0.5", "membership", "--s", "0,0",
                         "--p", "0,0"]) == 2
    assert "eps_circle must be below 0.5" in capsys.readouterr().err
    assert cli_dispatch(["--tol", "circle_samples=100", "membership", "--s", "0,0",
                         "--p", "0,0"]) == 2
    assert "circle_samples must be at least 256" in capsys.readouterr().err

    # widened residual tolerance flips a near-boundary classification
    assert cli_dispatch(["--tol", "eps_residual=0.2", "membership",
                         "--s", "1.9,0", "--p", "0.9,0"]) == 0
    wide = capsys.readouterr().out.strip()
    assert cli_dispatch(["membership", "--s", "1.9,0", "--p", "0.9,0"]) == 0
    narrow = capsys.readouterr().out.strip()
    assert wide != narrow

    monkeypatch.setenv("GAMMAKIT_TOL_EPS_RESIDUAL", "0.2")
    assert cli_dispatch(["membership", "--s", "1.9,0", "--p", "0.9,0"]) == 0
    assert capsys.readouterr().out.strip() == wide


@pytest.mark.parametrize(
    "name", ["eps_trim", "eps_root", "eps_circle", "eps_residual", "circle_samples"]
)
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_tolerance_config_rejects_non_finite_or_non_positive(name, value):
    with pytest.raises(ValueError, match=name):
        ToleranceConfig(**{name: value})


@pytest.mark.parametrize("value", [300.7, 1e300, 1024.0, True])
def test_tolerance_config_requires_an_integer_circle_samples(value):
    with pytest.raises(ValueError, match="circle_samples must be at least 256 and an int"):
        ToleranceConfig(circle_samples=value)


def test_cli_superficial_example(tmp_path, capsys):
    out = tmp_path / "sup.json"
    assert cli_dispatch(["example", "--family", "superficial", "--omega", "0,1",
                         "--p-den", "1,0;0.5,0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["analyze", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == [1, 1]
    assert payload["superficial"] == pytest.approx([0.0, 1.0])


_MAP_DOC = {"E": [[0, 0], [2, 0]], "D": [[1, 0]], "n": 2}
_SPEC_DOC = {"alphas": [], "taus": [], "sigmas": [[0, 0]], "t_plus": 1, "t": 1, "omega": [1, 0]}
_NODE_DOC = {"location": [0, 0], "multiplicity": 1, "region": "disc"}


@pytest.mark.parametrize(
    "read, value, error, location",
    [
        (to_jsonable, object(), TypeError, None),
        (parse_gamma_inner, json.dumps({**_MAP_DOC, "E": [1, 2]}), ParseError, "$.E[0]"),
        (parse_gamma_inner, json.dumps({**_MAP_DOC, "E": 5}), ParseError, "$.E"),
        (parse_gamma_inner, "[1]", ParseError, "$"),
        (parse_gamma_inner, json.dumps({**_MAP_DOC, "n": 1.5}), ParseError, "$.n"),
        (parse_spec, json.dumps({**_SPEC_DOC, "alphas": 1}), ParseError, "$.alphas"),
        (parse_royal_profile, '{"nodes": 3, "n": 0, "k": 0}', ParseError, "$.nodes"),
        (
            parse_royal_profile,
            json.dumps({"nodes": [{**_NODE_DOC, "region": "edge"}], "n": 1, "k": 0}),
            ParseError,
            "$.nodes[0].region",
        ),
        (
            parse_royal_profile,
            json.dumps({"nodes": [{**_NODE_DOC, "multiplicity": 0}], "n": 0, "k": 0}),
            ValidationError,
            None,
        ),
        (parse_trig, '{"n": 1, "coeffs": 3}', ParseError, "$.coeffs"),
        (parse_trig, '{"n": 1, "coeffs": [[1, 0], [1, 0], [2, 0]]}', ValidationError, None),
    ],
    ids=["jsonable-object", "E-scalars", "E-number", "not-an-object", "fractional-n",
         "alphas-number", "nodes-number", "region-edge", "multiplicity-0", "coeffs-number",
         "not-hermitian"],
)
def test_bad_values_and_documents_raise_where_they_fail(read, value, error, location):
    with pytest.raises(error) as caught:
        read(value)
    assert type(caught.value) is error
    if location is not None:
        assert caught.value.location == location
