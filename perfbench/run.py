"""gaussep benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload shots_heavy|states_many|exact_oracle \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports gaussep from that
checkout's ``src`` and fails when the package is not there.

With ``--trace 0`` it sets up the workload several times (import, input
generation, warm-up), repeats the workload's rounds for ``--seconds``,
sets up a few more times and prints the end-to-end metrics listed in
``BENCHMARK.json``; ``setup_s`` is the median of all set-ups, taken
before and after the measured rounds so that one slow spell of the host
does not cover them all.  With
``--trace 1`` it alternates untraced and traced passes of one round
each; the traced pass wraps every public function of every gaussep
module and gives the per-layer metrics, and the difference between the
two passes is the tracing overhead.

Human-readable lines come first: the environment, the workload's named
metrics with units, and failed/attempted.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads OpenBLAS.  With its default of
# one thread per CPU, OpenBLAS kept a second thread spinning on the other
# CPU of a 2-CPU host (process CPU time twice wall time) for no gain:
# sampled stokes, twocopy_m3 and locc_i calls at 1e5 shots took the same
# time with one thread.  The spinning thread only made every run depend
# on both CPUs staying free.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("core", "transforms", "states", "sampling", "moments", "locc",
           "stokes", "twocopy", "io", "cli", "exceptions")
SET_UPS_BEFORE, SET_UPS_AFTER = 5, 4

# Functions whose calls and self time are reported as per-layer metrics.
# A layer's self time includes the unlisted functions it calls.
LAYERS = (
    "sampling.sample_wigner",
    "moments.evaluate_on_samples", "moments.ordering_offset", "moments.real_expect_operator",
    "transforms.apply_transform", "transforms.embed", "states.displaced_squeezed_thermal",
    "stokes.sample_stokes", "stokes.solve_single_mode", "stokes.solve_c_block",
    "stokes.full_pipeline", "stokes.expect_stokes", "stokes.propagated_expectations",
    "locc.run_scheme", "locc.verdict_from_estimate",
    "twocopy.swap_test", "twocopy.method1_c", "twocopy.method3_c",
    "twocopy.run_two_copy", "core.simon_criterion", "core.project_to_valid", "states.random_state",
    "cli.main", "cli.run_experiment", "io.state_from_spec", "io.load_state",
)

# The five stages every sampled scheme passes through.  A span with no
# stage of its own inherits its parent's; everything below an OPAQUE
# function (input construction) counts as "other".
STAGES = {
    **{f"transforms.{f}": "propagate" for f in (
        "apply_transform", "compose", "embed", "identity", "phase_shifter",
        "beam_splitter_50_50", "rotation_theta", "displacement",
        "single_mode_squeezer", "two_mode_squeezer", "opa")},
    "core.tensor_product": "propagate", "core.partial_trace": "propagate",
    "states.displaced_squeezed_thermal": "propagate",
    "twocopy.rotated_marginal": "propagate",
    "sampling.sample_wigner": "draw", "twocopy.swap_test": "draw",
    **{name: "evaluate" for name in (
        "moments.evaluate_on_samples", "moments.ordering_offset",
        "moments.real_expect_operator", "moments.expect_operator",
        "moments.expect_symmetrized", "sampling.mean_and_se",
        "sampling.covariance_and_se", "sampling.estimate_functional",
        "stokes.sample_stokes", "stokes.expect_stokes",
        "stokes.propagated_expectations", "locc.run_scheme")},
    **{name: "solve" for name in (
        "stokes.solve_single_mode", "stokes.solve_c_block", "stokes.full_pipeline",
        "twocopy.method1_c", "twocopy.method2_det_c", "twocopy.method3_c",
        "locc.margin_std_error")},
    **{name: "criterion" for name in (
        "core.simon_criterion", "core.project_to_valid",
        "locc.verdict_from_estimate", "twocopy.assemble_verdict")},
}
OPAQUE = frozenset({"states.random_state", "io.state_from_spec", "io.load_state"})
STAGE_NAMES = ("propagate", "draw", "evaluate", "solve", "criterion", "other")
BENCH_SPAN = "bench"


def _count_samples(tracer, args):
    n, dims = args["n_shots"], args["state"].means.size
    tracer.count("sampling.normals_drawn", n * dims)
    # float64 normals drawn plus the float64 sample matrix written
    tracer.count("sampling.bytes_computed", 16 * n * dims)


def _count_monomials(tracer, args):
    tracer.count("moments.monomial_evals", len(args["poly"]) * args["samples"].shape[0])


HOOKS = {"sampling.sample_wigner": _count_samples,
         "moments.evaluate_on_samples": _count_monomials}
COUNTERS = ("sampling.normals_drawn", "sampling.bytes_computed",
            "moments.monomial_evals", "core.GaussianState.constructions")


def import_gaussep() -> SimpleNamespace:
    """Import gaussep afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "gaussep" or m.startswith("gaussep.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gaussep")
    if Path(package.__file__).resolve().parent != SRC / "gaussep":
        raise ImportError(f"gaussep imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **{
        m: importlib.import_module(f"gaussep.{m}") for m in MODULES})


def _blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def set_up(kind, seed: int, workdir: Path):
    """Import, generate inputs, warm up; returns (seconds, gaussep, workload)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    g = import_gaussep()
    workload = kind(g, seed, workdir)
    workload.warm_up()
    return time.perf_counter() - started, g, workload


def measure(workload, seconds: float, tally: Tally) -> None:
    started = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - started < seconds:
        workload.run_round(r, tally)
        r += 1


def measure_traced(g, workload, seconds: float, tally: Tally, spans_path: Path):
    """Per-layer metrics: medians over passes of one traced round each."""
    modules = [g.package] + [getattr(g, m) for m in MODULES]
    counted = [(g.core.GaussianState, "__post_init__", "core.GaussianState.constructions")]
    passes = []
    started = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        workload.run_round(r, tally)
        untraced = time.perf_counter() - t0
        tracer = spans.Tracer()
        with spans.patched(tracer, modules, HOOKS, counted):
            tracer.enter(BENCH_SPAN)
            try:
                workload.run_round(r, tally)
            finally:
                tracer.exit()
        passes.append((spans.summarize(tracer, LAYERS, STAGES, OPAQUE), untraced))
        r += 1
    tracer.write(spans_path)

    def med(f):
        return statistics.median(f(s, u) for s, u in passes)

    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = med(lambda s, u: s["calls"].get(name, 0))
        values[f"{name}.self_s"] = med(lambda s, u: s["self_s"].get(name, 0.0))
    for name in COUNTERS:
        values[name] = med(lambda s, u: s["counts"].get(name, 0))
    for stage in STAGE_NAMES:
        values[f"stage.{stage}_s"] = med(lambda s, u: s["stage_s"].get(stage, 0.0))
    values["trace.wall_s"] = med(lambda s, u: s["wall_s"])
    values["trace.overhead_s"] = med(lambda s, u: s["wall_s"] - u)
    values["trace.unattributed_s"] = med(lambda s, u: s["self_s"].get(None, 0.0))
    values["trace.listed_share"] = med(
        lambda s, u: 1.0 - s["self_s"].get(None, 0.0) / s["wall_s"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    kind = WORKLOADS[args.workload]
    tally = Tally()
    try:
        if args.trace:
            _, g, workload = set_up(kind, args.seed, workdir)
            values = measure_traced(g, workload, args.seconds, tally,
                                    OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            setups = []
            for _ in range(SET_UPS_BEFORE):
                seconds, g, workload = set_up(kind, args.seed, workdir)
                setups.append(seconds)
            measure(workload, args.seconds, tally)
            values, named = workload.results()
            for _ in range(SET_UPS_AFTER):
                setups.append(set_up(kind, args.seed, workdir)[0])
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            named = [("setup_s", values["setup_s"], "s", f"median of {len(setups)} set-ups"),
                     ("peak_rss_mb", values["peak_rss_mb"], "MB", "this process")] + named
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json were not measured: {sorted(missing)}")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    if not args.trace:
        for name, value, unit, note in named:
            print(f"{name} = {value:.6g} {unit}  ({note})")
    print(f"{args.workload}: failed/attempted = {tally.failed}/{tally.attempted}")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    correct = tally.check_failures == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
