"""gammakit benchmark: one closed-loop workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 8 --trace 0

One caller runs the workload's operations back to back, each starting when
the previous one returns, over whole passes of a pool built from ``--seed``
until at least ``--seconds`` have elapsed. Each output is checked after its
op's timing ends. ``--trace 0`` reports the end-to-end metrics, with op
times in reference seconds (see ``calibration.py``); ``--trace 1`` runs
every op both plain and with the traced gammakit functions wrapped (see
``tracer.py``) and reports per-layer metrics instead. The last stdout line
is the JSON result.

Other modes: ``--self-check`` compares the benchmark's generators with the
acceptance suite's, ``--write-manifest`` regenerates BENCHMARK.json from
the metric table below, and ``--setup-only`` (used internally to time
set-up) builds the inputs and exits.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one caller, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 8
SETUP_REPS = 7
CLI_REPS = 3

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("ops_per_s", "1/ref_s", "higher", 0.2),
    ("op_ms_p50", "ref_ms", "lower", 0.25),
    ("op_ms_p90", "ref_ms", "lower", 0.25),
    ("accuracy_digits", "digits", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer():
    rows = []
    for mod, fn in TRACED:
        rows.append((f"{mod}.{fn}.calls_per_op", "count", "lower"))
        rows.append((f"{mod}.{fn}.self_ms_per_op", "ms", "lower"))
    rows += [
        ("op.self_ms_per_op", "ms", "lower"),
        ("polynomials.roots_with_multiplicity.degree_per_op", "count", "lower"),
        ("inner.validate.raised", "count", "lower"),
        ("spectral.fejer_riesz.raised", "count", "lower"),
        ("synthesis.synthesize.raised", "count", "lower"),
        ("synthesis.witness_non_extreme.extrema_accept_ratio", "ratio", "higher"),
        ("synthesis.probe_defect_a.failed", "count", "lower"),
        ("synthesis.probe_defect_b.digits", "digits", "higher"),
        ("spectral.probe_degree64.digits", "digits", "higher"),
        ("spectral.probe_circle_cluster.digits", "digits", "higher"),
        ("io.probe_trace_winding.failed", "count", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.analyze_cold_ms", "ms", "lower"),
        ("ops.fail_frac", "ratio", "lower"),
        ("ops.worst_digits", "digits", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.op_coverage_frac", "ratio", "higher"),
    ]
    return rows


def manifest(workloads) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in workloads.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in _per_layer()],
    }


# -- environment -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_gammakit():
    """Import gammakit from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import gammakit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gammakit from {SRC}: {exc}")
    where = Path(gammakit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported gammakit from {where}, not from {SRC}")
    return gammakit


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(gk) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gammakit": gk.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# -- measurement -------------------------------------------------------------


def _run_op(op, item, tracer=None):
    """(output or the exception raised, seconds) for one operation."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op(item)
        else:
            with tracer.op_span():
                out = op(item)
    except Exception as exc:  # the loop must go on; the failure is counted
        out = exc
        traceback.print_exc(limit=3, file=sys.stderr)
    return out, time.perf_counter() - start


class Checker:
    """Checks each output as it arrives, after its op's timing has ended."""

    def __init__(self, workload):
        self.check = workload.check
        self.ops = 0
        self.failed = 0
        self.errors = []

    def digits(self, quantile: float) -> float:
        """-log10 of the given quantile of the per-op relative errors."""
        errors = sorted(self.errors)
        return -math.log10(max(errors[min(int(quantile * len(errors)), len(errors) - 1)], 1e-17))

    def __call__(self, item, out) -> None:
        if isinstance(out, Exception):
            problems, err = [f"raised {type(out).__name__}: {out}"], math.inf
        else:
            problems, err = self.check(item, out)
        self.errors.append(err)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed on op {self.ops}: {'; '.join(problems)}", file=sys.stderr)
        self.ops += 1


def run_passes(workload, items, seconds, checker):
    """Whole passes over ``items`` until ``seconds`` have elapsed.

    Returns (per-op durations, calibration kernel times). The kernel runs
    before each op and once after the last.
    """
    durations, kernel = [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        for item in items:
            kernel.append(calibration.kernel_seconds())
            out, elapsed = _run_op(workload.op, item)
            durations.append(elapsed)
            checker(item, out)
        if time.perf_counter() - start >= seconds:
            break
    kernel.append(calibration.kernel_seconds())
    return durations, kernel


def run_traced_passes(workload, items, seconds, tracer, checker):
    """Like run_passes, but each op runs twice, traced and untraced.

    The two runs of an op are back to back, in alternating order, so drift
    in machine speed cancels from the overhead estimate. Returns (traced
    seconds, untraced seconds).
    """
    seconds_by_side = {False: 0.0, True: 0.0}
    gc.collect()
    start = time.perf_counter()
    while True:
        for index, item in enumerate(items):
            for use_tracer in (False, True) if index % 2 else (True, False):
                if use_tracer:
                    with tracer:
                        out, elapsed = _run_op(workload.op, item, tracer)
                else:
                    out, elapsed = _run_op(workload.op, item)
                seconds_by_side[use_tracer] += elapsed
                checker(item, out)
        if time.perf_counter() - start >= seconds:
            break
    return seconds_by_side[True], seconds_by_side[False]


def time_setup(workload: str, seed: int) -> float:
    """Median wall time from launching a fresh interpreter to its first op."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up child exited with {code}")
    return statistics.median(times)


def time_cli(gk) -> tuple[float, float]:
    """Median cold `import gammakit.cli` and `gammakit analyze` wall times in ms."""

    def timed(argv):
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=60)
        elapsed = 1e3 * (time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: {argv[1:]} exited with {done.returncode}: {done.stderr}")
        return elapsed, done.stdout

    imports = [timed([sys.executable, "-c", "import gammakit.cli"])[0] for _ in range(CLI_REPS)]
    analyses = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        path = Path(tmp) / "h.json"
        path.write_text(gk.serialize(gk.h_nu(2, 0.5)))
        for _ in range(CLI_REPS):
            elapsed, stdout = timed([sys.executable, "-m", "gammakit.cli", "analyze", str(path)])
            if json.loads(stdout)["type"] != [6, 5]:
                raise SystemExit("error: gammakit analyze returned a wrong type")
            analyses.append(elapsed)
    return statistics.median(imports), statistics.median(analyses)


def measure(args, gk, wl) -> dict:
    workload = wl.WORKLOADS[args.workload]
    items = workload.build(args.seed)
    checker = Checker(workload)

    if not args.trace:
        durations, kernel = run_passes(workload, items, args.seconds, checker)
        print(f"# calibration kernel median {1e3 * statistics.median(kernel):.4f} ms (reference {1e3 * calibration.REF_S:g} ms)")
        print(f"# wall: {len(durations) / sum(durations):.6g} ops/s, median {1e3 * statistics.median(durations):.6g} ms")
        ms = [1e3 * d for d in calibration.reference_seconds(durations, kernel)]
        values = {
            "ops_per_s": 1e3 * len(ms) / sum(ms),
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        }
    else:
        tracer = Tracer()
        traced, plain = run_traced_passes(workload, items, args.seconds, tracer, checker)
        values = tracer.layer_metrics()
        values["trace.overhead_frac"] = traced / plain - 1.0
        values["trace.op_coverage_frac"] = tracer.op_total_s / traced

    probes = {
        "synthesis.probe_defect_a.failed": wl.probe_defect_a(),
        "synthesis.probe_defect_b.digits": wl.probe_defect_b(),
        "spectral.probe_degree64.digits": wl.probe_degree64(),
        "spectral.probe_circle_cluster.digits": wl.probe_circle_cluster(),
        "io.probe_trace_winding.failed": wl.probe_trace_winding(),
    }
    print("# known-defect probes: " + ", ".join(f"{k} = {v:.6g}" for k, v in probes.items()))
    print(f"# {checker.ops} ops checked on a pool of {len(items)} inputs; {checker.failed} failed")

    if not args.trace:
        # The worst op's digits vary by 10% between seeds, too much for a
        # bound; the 90th-percentile error is steady. ops.worst_digits
        # reports the worst op in the traced run.
        values["accuracy_digits"] = checker.digits(0.9)
        values["setup_s"] = time_setup(args.workload, args.seed)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        table = END_TO_END
        print(f"# op_ms_p50 and op_ms_p90 over {checker.ops} samples")
    else:
        values.update(probes)
        values["ops.fail_frac"] = checker.failed / checker.ops
        values["ops.worst_digits"] = checker.digits(1.0)
        values["cli.import_ms"], values["cli.analyze_cold_ms"] = time_cli(gk)
        table = _per_layer()
    for name, unit, *_ in table:
        print(f"# {name} = {values[name]:.6g} {unit}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.ops,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in table},
    }


def self_check() -> int:
    """The benchmark's random_spec must draw the acceptance pool, spec for spec."""
    import generators as gen

    sys.path.insert(0, str(ROOT / "tests"))
    import helpers

    rng = random.Random(gen.ROUNDTRIP_SEED)
    expected = [helpers.random_spec(rng, n_max=10) for _ in range(200)]
    ours = gen.spec_pool(gen.ROUNDTRIP_SEED, 200)
    mismatched = [i for i, (a, b) in enumerate(zip(ours, expected)) if a != b]
    print(f"roundtrip pool vs tests/helpers.random_spec: {len(mismatched)} of 200 differ")
    return 1 if mismatched else 0


def main(argv=None) -> int:
    gk = _import_gammakit()
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()
    if args.write_manifest:
        text = json.dumps(manifest(wl.WORKLOADS), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = wl.WORKLOADS[args.workload].default_seed
    if args.setup_only:
        wl.WORKLOADS[args.workload].build(args.seed)
        print("ready", flush=True)
        return 0

    print("# env " + json.dumps(environment(gk), sort_keys=True))
    print(json.dumps(measure(args, gk, wl)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
