"""Benchmark of the shapetransport package.

    python3 perfbench/run.py --workload sweep-m3k4 --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this single process, from the
source tree next to this directory, with BLAS and OpenMP pinned to one
thread. The load is a closed loop with one caller: each op starts when the
previous one returns.

--trace 0 sets up the workload several times, runs ops for --seconds and
reports the end-to-end metrics. --trace 1 runs ops untraced for half of
--seconds, replays the same inputs under the span tracer and reports the
per-layer metrics, per op, with the tracing overhead. Both modes check
every output and the workload's fixed check op against stored values.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
describe the machine and the run.
"""

import os

# Pinned before numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import OUT_DIR, WARMUP, WORKLOADS, load_expected  # noqa: E402

PACKAGE = "shapetransport"
SRC = Path(__file__).resolve().parent.parent / "src"
# Set-ups per run: at least SETUP_ROUNDS, more while they take under
# SETUP_SECONDS in total, at most SETUP_MAX_ROUNDS. setup_s is their median.
SETUP_ROUNDS, SETUP_SECONDS, SETUP_MAX_ROUNDS = 3, 2.0, 25
# A latency percentile is reported only with this many samples above it.
TAIL_SAMPLES = 10


def import_package():
    """Import the package afresh, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def set_up(workload, seed):
    """Package import, input streams and one untimed warm-up op."""
    start = time.perf_counter()
    pkg = import_package()
    inputs = workload.inputs(seed)
    workload.op(pkg, next(workload.inputs(seed, WARMUP)))
    return time.perf_counter() - start, pkg, inputs


def run_ops(workload, pkg, inputs, seconds=None, count=None):
    """Closed loop with one caller, for `seconds` or for `count` ops.

    Each output is checked as soon as its op returns, outside the op's
    time, and then dropped, so memory does not grow with the op count.
    Returns one (latency_s, problems, kept, refused) per op: `kept` is what
    the workload's run-level check needs, and `refused` marks an op that
    ended in the package's own typed `ShapeSpaceError`.
    """
    ops = []
    start = time.perf_counter()
    while True:
        inp = next(inputs)
        t0 = time.perf_counter()
        try:
            out = workload.op(pkg, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            latency = time.perf_counter() - t0
            ops.append((latency, [f"{type(exc).__name__}: {exc}"], None,
                        isinstance(exc, pkg.ShapeSpaceError)))
        else:
            latency = time.perf_counter() - t0
            ops.append((latency, workload.check(out), workload.keep(out),
                        False))
        if count is not None:
            if len(ops) >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return ops


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def latency_summary(latencies):
    """Median and p90 in ms with the sample count; p90 only when at least
    TAIL_SAMPLES samples lie above it."""
    ms = sorted(1e3 * t for t in latencies)
    summary = {"samples": len(ms), "op_ms.p50": statistics.median(ms)}
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[-1]
        if sum(t > p90 for t in ms) >= TAIL_SAMPLES:
            summary["op_ms.p90"] = p90
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The package is built from this checkout's source, never taken from an
    # installed copy.
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    expected = load_expected(workload.name)
    OUT_DIR.mkdir(exist_ok=True)

    setups = []
    while len(setups) < SETUP_ROUNDS or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_ROUNDS):
        elapsed, pkg, inputs = set_up(workload, args.seed)
        setups.append(elapsed)

    metrics = {}
    if args.trace:
        ops = run_ops(workload, pkg, inputs, seconds=args.seconds / 2)
        tracer = Tracer(PACKAGE)
        with tracer:
            traced = run_ops(workload, pkg, workload.inputs(args.seed),
                             count=len(ops))
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
        for name, (value, unit) in tracer.metrics(ops=len(traced)).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead_ratio"] = {
            "value": sum(op[0] for op in traced) / sum(op[0] for op in ops),
            "unit": "ratio"}
        if tracer.absent:
            print(f"# absent from the package: {', '.join(tracer.absent)}")
        ops = ops + traced
    else:
        ops = run_ops(workload, pkg, inputs, seconds=args.seconds)

    passed = [op for op in ops if not op[1]]
    # A typed refusal is a failed op but not a wrong answer; every other
    # problem is a wrong answer and makes the run incorrect.
    refusals = [line for op in ops if op[3] for line in op[1]]
    wrong = [line for op in ops if not op[3] for line in op[1]]
    run_problems = (workload.check_run([op[2] for op in passed]) if passed
                    else ["no op passed"])
    check_problems, drift, _ = workload.verify(pkg, expected)
    attempted = len(ops) + 1
    failed = len(ops) - len(passed) + (1 if check_problems else 0)
    for line in refusals[:5]:
        print(f"# refused: {line}", file=sys.stderr)
    for line in wrong[:5] + run_problems + check_problems[:5]:
        print(f"# problem: {line}", file=sys.stderr)

    # Failed ops keep their latency and count against throughput.
    latency = latency_summary([op[0] for op in ops])
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(passed) / sum(op[0] for op in ops),
                          "unit": "1/s"},
            "op_ms.p50": {"value": latency["op_ms.p50"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "isometry_drift.max": {"value": drift, "unit": "length"},
        }
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print("# run " + json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setups, "failed_ratio": failed / attempted,
        "refused": len(refusals), **latency}, sort_keys=True))
    print(json.dumps({
        "correct": not (wrong or run_problems or check_problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
