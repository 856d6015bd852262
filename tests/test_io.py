import cmath
import json
import math

import pytest

from gammakit import (
    ParseError,
    Poly,
    SynthesisSpec,
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
from gammakit.cli import cli_dispatch
from gammakit.io import TRACE_HEADER


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


def test_trace_matches_pointwise_eval():
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
    for h in maps:
        theta = 0.0
        for row in trace_boundary(h, 256):
            s, p = eval_h(h, cmath.exp(1j * row.t))
            x, theta = mobius_chart(s, p, theta, h.tol)
            expected = (s.real, s.imag, p.real, p.imag, x, theta, 2.0 - abs(s),
                        abs(s - s.conjugate() * p))
            found = (row.s_re, row.s_im, row.p_re, row.p_im, row.x, row.theta,
                     row.edge_gap, row.b_residual)
            assert max(abs(a - b) for a, b in zip(found, expected)) <= 1e-12


def test_trace_csv_format():
    h = h_nu(0, 0.5)
    text = trace_to_csv(trace_boundary(h, 16))
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 17
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[0]) == 0.0


def test_trace_requires_enough_samples():
    with pytest.raises(ValueError):
        trace_boundary(h_nu(0, 0.5), 8)


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
    capsys.readouterr()

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


def test_cli_superficial_example(tmp_path, capsys):
    out = tmp_path / "sup.json"
    assert cli_dispatch(["example", "--family", "superficial", "--omega", "0,1",
                         "--p-den", "1,0;0.5,0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["analyze", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == [1, 1]
    assert payload["superficial"] == pytest.approx([0.0, 1.0])
