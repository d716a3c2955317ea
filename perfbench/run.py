"""Benchmark of the tduality engine: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are ``paper-suite``, ``large-samples`` and
``dense-points`` (``workloads.py`` says what each runs and why).

With ``--trace 0`` the end-to-end metrics are measured, tracing off:

* ``setup_s``: fresh interpreter until ``import tduality`` returns, the median
  of several interpreters started one after another (a first, discarded one
  writes the bytecode caches).
* ``wall_s``: median wall time of one warm pass of the workload, i.e. the time
  to all its verdicts.  Passes repeat until ``--seconds`` have been measured
  (at least one); the pass count is in the record.  Pass ``j`` runs on the
  inputs of seed ``1000 * seed + j`` (``pass_seed``): the size of the work
  depends on the seed by up to 10%, and a median over many seeds does not.
* ``peak_rss_mb``: ``ru_maxrss`` of this process, which ran the workload.

Both times are scaled to a nominal host speed by a reference loop that a
timer runs every 20 ms while they are measured (``hostspeed.py``); the raw
times are in the record.

With ``--trace 1`` the per-layer metrics are measured: untraced passes (for
each scenario's verdict time and the tracer's overhead) alternate with passes
under the outside tracer (``tracer.py``), then one pass runs under cProfile,
whose top-10 self time by module goes into the record.

Every pass checks every verdict against its known answer; a failed, missing
or raised check counts in ``failed`` and in ``fail_share``.  The next-to-last
line of standard output is the full record (context, pass times, profile);
the last line is the result: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7

# One BLAS thread, for this process and the interpreters it starts (set
# before numpy is imported).  The package's matrices are small (2^m x 2^m
# for a coframe of m generators), too small for threads to help, and beside
# a second busy process on a 2-core machine a threaded dense-points pass took
# 109 s instead of 3.8 s: threaded timings measure the neighbours more than
# the program.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# Child programs for the set-up measurements.  The first carries on the host
# speed sampling from the CLOCK_MONOTONIC reading (shared by all processes of
# the machine) its parent took just before starting it, and prints the scaled
# and the raw seconds until ``import tduality`` returned; the second prints a
# duration.
IMPORT_PACKAGE = ("import sys, hostspeed; s = hostspeed.HostSpeed(); "
                  "s.start(since=float(sys.argv[1])); import tduality; s.stop(); "
                  "print(s.scaled_s, s.clean_s)")
IMPORT_SCIPY = ("import time, numpy; t0 = time.perf_counter(); "
                "import scipy.integrate; print(time.perf_counter() - t0)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper-suite, large-samples or dense-points")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    return args


def _child(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return [float(x) for x in out.stdout.split()]


def measure_setup(repeats=SETUP_REPEATS):
    """Median scaled seconds from starting an interpreter until ``import
    tduality`` returns, and the raw seconds of each interpreter."""
    scaled, raw = [], []
    for i in range(repeats + 1):
        s, r = _child(IMPORT_PACKAGE, repr(time.monotonic()))
        if i:
            scaled.append(s)
            raw.append(r)
    return statistics.median(scaled), raw


def timed_pass(workload, seed, tracer=None):
    """One warm pass: its wall time (the tracer installed outside it), verdict, scenario times."""
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        verdict, times = workload.run(seed)
        wall = time.perf_counter() - t0
    return wall, verdict, times


def pass_seed(seed, j):
    """Seed of the ``j``-th timed pass of an end-to-end run at ``seed``."""
    return 1000 * seed + j


def scaled_pass(workload, seed, speed):
    """One warm pass under host speed sampling: its scaled and raw seconds, verdict."""
    scaled0, raw0 = speed.mark()
    verdict, _ = workload.run(seed)
    scaled1, raw1 = speed.mark()
    return scaled1 - scaled0, raw1 - raw0, verdict


def context(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def end_to_end(args, workload):
    setup_s, setup_runs = measure_setup()
    workload.run(args.seed, warm=True)
    speed = hostspeed.HostSpeed()
    passes = []
    speed.start()
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(scaled_pass(workload, pass_seed(args.seed, len(passes)),
                                      speed))
    finally:
        speed.stop()
    walls = [p[0] for p in passes]
    raw_walls = [p[1] for p in passes]
    verdicts = [p[2] for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {"setup_runs_raw_s": setup_runs, "passes": len(walls),
              "pass_wall_s": walls, "pass_wall_raw_s": raw_walls,
              "wall_raw_s": statistics.median(raw_walls),
              "reference_loops": speed.probes,
              "reference_share": speed.probe_s / (speed.probe_s + speed.clean_s)}
    return metrics, verdicts, record


def per_layer(args, workload):
    import tracer
    import workloads
    from tduality.scenarios import SCENARIOS
    scipy_s = statistics.median(_child(IMPORT_SCIPY)[0] for _ in range(5))
    workload.run(args.seed, warm=True)
    # Untraced and traced passes alternate, so a drift in host speed reaches
    # both sides of the overhead ratio alike.
    untraced, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(timed_pass(workload, args.seed))
        tracers.append(tracer.Tracer([workloads]))
        traced_passes.append(timed_pass(workload, args.seed, tracers[-1]))
    walls = [p[0] for p in untraced]
    traced_walls = [p[0] for p in traced_passes]
    scenario_times = [p[2] for p in untraced]
    verdicts = [p[1] for p in untraced + traced_passes]
    t0 = time.perf_counter()
    total_self, top, by_module = tracer.profile_by_module(
        lambda: verdicts.append(workload.run(args.seed)[0]))
    profiled_wall = time.perf_counter() - t0

    layers = [tr.layer_metrics() for tr in tracers]
    metrics = {}
    for name, value in layers[0].items():
        if isinstance(value, int):         # counts repeat exactly; keep the first
            metrics[name] = (value, "count")
        else:
            unit = "ratio" if name.endswith(("_share", "_ratio")) else "s"
            metrics[name] = (statistics.median(m[name] for m in layers), unit)
    for name in SCENARIOS:
        runs = [t[name] for t in scenario_times if name in t]
        metrics[f"scenarios.verdict_s.{name}"] = (
            statistics.median(runs) if runs else 0.0, "s")
    metrics["setup.scipy_import_s"] = (scipy_s, "s")
    traced_wall = statistics.median(traced_walls)
    metrics["trace.overhead"] = (traced_wall / statistics.median(walls), "ratio")
    metrics["profile.fractions.self_share"] = (
        by_module.get("fractions", 0.0) / total_self, "ratio")

    def wall_share(*names):
        return sum(metrics[n][0] for n in names) / traced_wall
    record = {
        "passes": len(walls), "pass_wall_s": walls,
        "traced_passes": len(traced_walls), "traced_pass_wall_s": traced_walls,
        "profiled_pass_wall_s": profiled_wall,
        "counts": tracers[0].counts(),
        "counts_repeat": all(tr.counts() == tracers[0].counts() for tr in tracers),
        "share_of_traced_wall": {
            "scalar.diff.incl_s": wall_share("scalar.diff.incl_s"),
            "structures.self_s+linalg.self_s": wall_share("structures.self_s",
                                                          "linalg.self_s"),
            "scalar.construct.self_s": wall_share("scalar.construct.self_s"),
            "scalar.evaluate.self_s": wall_share("scalar.evaluate.self_s"),
        },
        "profile_top10_self": [{"module": m, "self_s": s, "share": s / total_self}
                               for m, s in top],
    }
    return metrics, verdicts, record


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tduality" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'tduality'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tduality
    if Path(tduality.__file__).resolve().parent != SRC / "tduality":
        print(f"imported tduality from {tduality.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, verdicts, record = measure(args, workload)
    attempted = sum(v.expected for v in verdicts)
    failures = [name for v in verdicts for name in v.failures]
    fail_share = len(failures) / attempted
    if args.trace:
        metrics["verdict.fail_share"] = (fail_share, "ratio")
    record = {**context(args), **record, "attempted": attempted,
              "failed": len(failures), "fail_share": fail_share,
              "failures": failures[:20]}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:44s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:14s} {'fail_share':44s} {fail_share:14.6g} ratio")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
