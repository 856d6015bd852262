"""Command-line interface.

Exit codes: 0 on success, 1 on validation or precondition failures, 2 on
malformed input or usage errors. Tolerances come from defaults, then
GAMMAKIT_TOL_* environment variables, then repeated --tol KEY=VAL flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io as gio
from .errors import GammaKitError, ParseError, RoyalVariety
from .geometry import classify_point
from .inner import geodesic, h_nu, superficial
from .polynomials import Poly
from .royal import is_s_extreme, is_superficial, royal_profile
from .spectral import fejer_riesz
from .synthesis import synthesize, witness_non_extreme
from .tolerances import DEFAULT_TOL, ToleranceConfig

_TOL_FIELDS = {
    "eps_trim": float,
    "eps_root": float,
    "eps_circle": float,
    "eps_residual": float,
    "circle_samples": int,
}

_ENV_PREFIX = "GAMMAKIT_TOL_"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _UsageError(f"expected RE or RE,IM, got {text!r}")


def _parse_poly_arg(text: str) -> Poly:
    # Semicolon-separated RE,IM pairs, ascending powers: "1,0;0.5,0".
    return Poly([_parse_complex(chunk) for chunk in text.split(";") if chunk.strip()])


def _resolve_tol(tol_args) -> ToleranceConfig:
    overrides = {}
    for field, caster in _TOL_FIELDS.items():
        env_val = os.environ.get(_ENV_PREFIX + field.upper())
        if env_val is not None:
            try:
                overrides[field] = caster(env_val)
            except ValueError:
                raise _UsageError(f"bad value for {_ENV_PREFIX + field.upper()}: {env_val!r}")
    for item in tol_args or ():
        key, sep, value = item.partition("=")
        if not sep or key not in _TOL_FIELDS:
            raise _UsageError(f"--tol expects KEY=VAL with KEY in {sorted(_TOL_FIELDS)}")
        try:
            overrides[key] = _TOL_FIELDS[key](value)
        except ValueError:
            raise _UsageError(f"bad value for --tol {key}: {value!r}")
    try:
        return DEFAULT_TOL.with_overrides(**overrides)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _build_parser() -> _Parser:
    parser = _Parser(prog="gammakit", description=__doc__)
    parser.add_argument(
        "--tol",
        action="append",
        metavar="KEY=VAL",
        help="override a tolerance field; may be repeated",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("membership", help="classify a point (s, p)")
    p.add_argument("--s", required=True, metavar="RE,IM")
    p.add_argument("--p", required=True, metavar="RE,IM")

    p = sub.add_parser("analyze", help="degree, royal profile, type, extremity")
    p.add_argument("file")

    p = sub.add_parser("synthesize", help="build an inner map from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("factorize", help="outer spectral factor of a trig polynomial")
    p.add_argument("--trig", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("trace", help="export the boundary curve as CSV")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--out", required=True)

    p = sub.add_parser("example", help="write a canonical example family member")
    p.add_argument("--family", required=True, choices=["h-nu", "geodesic", "superficial"])
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--beta", default="0.5")
    p.add_argument("--omega", default="1")
    p.add_argument("--p-den", default="1,0;0,0;0.5,0", dest="p_den")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("witness", help="convex decomposition of a non-extreme map")
    p.add_argument("file")
    p.add_argument("--out-plus", required=True, dest="out_plus")
    p.add_argument("--out-minus", required=True, dest="out_minus")

    return parser


def _analyze_payload(h, tol):
    payload = {"n": h.n, "degree": h.degree}
    try:
        profile = royal_profile(h, tol)
    except RoyalVariety:
        payload["royal_variety"] = True
        return payload
    payload["royal_variety"] = False
    payload["type"] = [profile.n, profile.k]
    payload["nodes"] = gio.to_jsonable(profile)["nodes"]
    payload["s_extreme"] = is_s_extreme(h)
    omega = is_superficial(h, tol)
    payload["superficial"] = None if omega is None else [omega.real, omega.imag]
    return payload


def _run(args, tol: ToleranceConfig) -> int:
    if args.command == "membership":
        region = classify_point(_parse_complex(args.s), _parse_complex(args.p), tol)
        print(region.value)
        return 0

    if args.command == "analyze":
        h = gio.parse_gamma_inner(Path(args.file).read_text(), tol)
        print(json.dumps(_analyze_payload(h, tol), indent=2))
        return 0

    if args.command == "synthesize":
        spec = gio.parse_spec(Path(args.spec).read_text(), tol)
        h = synthesize(spec, tol)
        Path(args.out).write_text(gio.serialize(h))
        return 0

    if args.command == "factorize":
        trig = gio.parse_trig(Path(args.trig).read_text())
        Path(args.out).write_text(gio.serialize(fejer_riesz(trig, tol)))
        return 0

    if args.command == "trace":
        if args.samples < 16:  # the minimum trace_boundary accepts
            raise _UsageError(f"--samples must be at least 16, got {args.samples}")
        h = gio.parse_gamma_inner(Path(args.file).read_text(), tol)
        rows = gio.trace_boundary(h, args.samples)
        Path(args.out).write_text(gio.trace_to_csv(rows))
        return 0

    if args.command == "example":
        if args.family == "h-nu":
            h = h_nu(args.nu, args.r, tol)
        elif args.family == "geodesic":
            h = geodesic(_parse_complex(args.beta), tol)
        else:
            h = superficial(_parse_complex(args.omega), _parse_poly_arg(args.p_den), args.m, tol)
        Path(args.out).write_text(gio.serialize(h))
        return 0

    if args.command == "witness":
        h = gio.parse_gamma_inner(Path(args.file).read_text(), tol)
        t_step, h_plus, h_minus = witness_non_extreme(h, tol)
        Path(args.out_plus).write_text(gio.serialize(h_plus))
        Path(args.out_minus).write_text(gio.serialize(h_minus))
        print(json.dumps({"t": t_step}))
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        tol = _resolve_tol(args.tol)
        return _run(args, tol)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits directly for --help; pass its code through
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GammaKitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
