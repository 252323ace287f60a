#!/usr/bin/env python3
"""Benchmark of lvdiag: one closed-loop caller running one workload.

    python3 bench/run.py --workload verify|run|sweep --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports lvdiag from the
checkout's ``src/`` and refuses to run without it.  One process makes one
call at a time: each op starts when the previous one has returned and been
checked.  The BLAS and OpenMP pools are pinned to one thread.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then warm-up, then ``--seconds`` of timed ops.  Its times are
scaled to a reference host speed with a probe timed around each op (see
``probe``); the raw wall-clock figures are printed above the result line.
``--trace 1`` runs each op twice, untraced and traced in alternating order,
and reports the per-layer metrics from the traced calls; its spans are
written to ``.bench_out/`` at the end.  Every op's output is checked; an op
that raises or fails its check counts as failed and the run goes on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

from layers import PER_LAYER, Annotator, per_layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}

# At least this many timed ops, so the tail percentile has 10 samples beyond
# it and sits well above the median (at p66.7 or higher).  A traced run needs
# no tail; it takes at least two ops, one per order of the traced/untraced pair.
MIN_OPS = 30
WARMUP_SECONDS = 2.0
# Set-up child k makes the workload's k-th op its first call, so on `run`
# the children cover one whole cycle of eight ops whatever the seed.
SETUP_RUNS = 8
SETUP_TIMEOUT_S = 60

# The host's speed drifts.  On the shared 2-vCPU machine the benchmark was
# built on, the same op ran up to 1.7 times slower for stretches of seconds
# to minutes, with no steal time and the process's CPU time growing with its
# wall time, so a run's raw median mostly told how much of the run fell in a
# slow stretch.  A fixed piece of work shaped like lvdiag's, the probe, is
# timed just before and just after each op and each set-up child, and their
# times are reported scaled by PROBE_REFERENCE_S over the mean of the two
# probe times: the time they would take at the host speed at which the probe
# takes PROBE_REFERENCE_S (about its median on that machine).  Of the probes
# tried there, this one tracked the ops' slowdowns best.  The two virtual
# CPUs slowed at different times, so the benchmark and its set-up children
# run on one CPU, the probe's.
PROBE_PRODUCTS = 300
PROBE_STEPS = 3000
PROBE_REFERENCE_S = 8.0e-3

_SETUP_CHILD = """
import itertools, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
wl = workloads.WORKLOADS[{name!r}]({seed!r}, {workdir!r})
start = time.perf_counter()
import lvdiag
op = next(itertools.islice(wl.inputs(), {index!r}, None))
result = wl.call(wl.entry(), op)
elapsed = time.perf_counter() - start
wl.check(op, result)
print(repr(elapsed))
"""


class Ledger:
    """Ops attempted and failed; the first failure is printed with its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed == 1:
                print(f"first failure: {what}", file=sys.stderr)


def probe():
    """Seconds the host takes for a fixed piece of work shaped like lvdiag's.

    Products of short polynomials in a Python loop, as in the series schemes,
    then a scalar midpoint stepper on the prey-predator field, as in the
    integrator.  It calls nothing of lvdiag.
    """
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    coeffs = np.array([1.0, 0.5, 0.25])
    start = time.perf_counter()
    acc = np.zeros(1)
    for _ in range(PROBE_PRODUCTS):
        acc = npoly.polyadd(acc, npoly.polymul(coeffs, coeffs))[:6]
    x, y, h = 1.0, 0.5, 0.01
    for _ in range(PROBE_STEPS):
        xm = x + 0.5 * h * (x - x * y)
        ym = y + 0.5 * h * (x * y - y)
        x, y = x + h * (xm - xm * ym), y + h * (xm * ym - ym)
    return time.perf_counter() - start


def run_op(workload, fn, op, ledger, results, after_call=None):
    """One op; returns its time in seconds, also when it raised.  Checks run untimed."""
    start = time.perf_counter()
    try:
        result = workload.call(fn, op)
    except Exception:
        elapsed = time.perf_counter() - start
        ledger.record(False, traceback.format_exc())
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        if after_call is not None:
            after_call()
        workload.check(op, result)
    except Exception:
        ledger.record(False, traceback.format_exc())
        return elapsed
    ledger.record(True)
    results.append(result)
    return elapsed


def probed_op(workload, entry, op, ledger, results):
    """One op's wall time and the mean of the probe times just before and after it, in seconds."""
    before = probe()
    elapsed = run_op(workload, entry, op, ledger, results)
    return elapsed, 0.5 * (before + probe())


def warm_up(workload, entry, inputs, ledger, results):
    """Whole input cycles until WARMUP_SECONDS have passed."""
    start = time.perf_counter()
    while True:
        for _ in range(workload.cycle):
            run_op(workload, entry, next(inputs), ledger, results)
        if time.perf_counter() - start >= WARMUP_SECONDS:
            return


def _done(start, seconds, count, cycle, min_ops):
    return time.perf_counter() - start >= seconds and count >= min_ops and count % cycle == 0


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than 11 samples
    there is none, and the maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def measure_setup(name, seed, workdir, ledger, runs=SETUP_RUNS):
    """Median over fresh interpreters of ``import lvdiag`` plus the first op.

    Returns (scaled, wall) seconds; the probe runs before each child and
    after the last.
    """
    wall, scaled = [], []
    before = probe()
    for index in range(runs):
        code = _SETUP_CHILD.format(
            src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, workdir=str(workdir), index=index
        )
        try:
            child = subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired:
            ledger.record(False, "set-up child timed out")
            before = probe()
            continue
        after = probe()
        ok = child.returncode == 0
        ledger.record(ok, child.stderr)
        if ok:
            wall.append(float(child.stdout.strip().splitlines()[-1]))
            scaled.append(wall[-1] * 2.0 * PROBE_REFERENCE_S / (before + after))
        before = after
    if not wall:
        return 0.0, 0.0
    return statistics.median(scaled), statistics.median(wall)


def measure_end_to_end(name, seed, seconds, workdir, min_ops=MIN_OPS, setup_runs=SETUP_RUNS):
    workload = WORKLOADS[name](seed, workdir)
    ledger = Ledger()
    setup_s, wall_setup_s = measure_setup(name, seed, workdir, ledger, setup_runs)
    entry = workload.entry()
    inputs = workload.inputs()
    results = []
    warm_up(workload, entry, inputs, ledger, results)
    wall, probes = [], []
    start = time.perf_counter()
    while not _done(start, seconds, len(wall), workload.cycle, min_ops):
        elapsed, probe_s = probed_op(workload, entry, next(inputs), ledger, results)
        wall.append(elapsed)
        probes.append(probe_s)
    latencies = [w * PROBE_REFERENCE_S / p for w, p in zip(wall, probes)]
    slowdown = statistics.median(probes) / PROBE_REFERENCE_S
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_ops_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "timed_ops": len(latencies),
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_tail_samples_beyond": beyond,
        "wall_setup_s": round(wall_setup_s, 4),
        "wall_latency_p50_ms": round(statistics.median(wall) * 1e3, 2),
        "wall_latency_tail_ms": round(tail(wall)[0] * 1e3, 2),
        "wall_throughput_ops_s": round(len(wall) / sum(wall), 4),
        "probe_slowdown": round(slowdown, 3),
        "failed_ratio": ledger.failed / max(ledger.attempted, 1),
        **workload.describe(results),
    }
    return ledger, metrics, notes


def measure_traced(name, seed, seconds, workdir, min_ops=2):
    workload = WORKLOADS[name](seed, workdir)
    ledger = Ledger()
    entry = workload.entry()
    inputs = workload.inputs()
    results = []
    warm_up(workload, entry, inputs, ledger, results)
    tracer = Tracer()
    traced_entry = tracer.entry(entry)
    annotate = Annotator()
    traced_s, untraced_s = [], []

    def traced_op(op):
        tracer.install()
        try:
            first = tracer.begin_op(len(traced_s))
            return run_op(workload, traced_entry, op, ledger, results, lambda: tracer.finish_op(first, annotate))
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while not _done(start, seconds, len(traced_s), workload.cycle, min_ops):
        op = next(inputs)
        if len(traced_s) % 2 == 0:
            untraced_s.append(run_op(workload, entry, op, ledger, results))
            traced_s.append(traced_op(op))
        else:
            traced_s.append(traced_op(op))
            untraced_s.append(run_op(workload, entry, op, ledger, results))
    metrics = per_layer_metrics(tracer.spans, len(traced_s), traced_s, untraced_s)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.json"
    with open(spans_path, "w") as handle:
        json.dump([s.as_record() for s in tracer.spans], handle)
    notes = {
        "traced_ops": len(traced_s),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_ratio": ledger.failed / max(ledger.attempted, 1),
    }
    return ledger, metrics, notes


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU, the one the probe times."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _machine():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": ",".join(map(str, sorted(os.sched_getaffinity(0)))) if hasattr(os, "sched_getaffinity") else "any",
        "threads": ",".join(f"{v}=1" for v in _THREAD_VARS),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_lvdiag():
    """lvdiag from this checkout's sources, never from an installed copy."""
    package = SRC / "lvdiag" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark inside an lvdiag source checkout")
    sys.path.insert(0, str(SRC))
    import lvdiag

    if Path(lvdiag.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported lvdiag from {lvdiag.__file__}, not from {SRC}")
    return lvdiag


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    import_lvdiag()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ledger, metrics, notes = measure_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            ledger, metrics, notes = measure_end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"lvdiag benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in _machine().items()))
    for key, value in notes.items():
        print(f"  {key}: {value}")
    width = max(len(name) for name in metrics)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
