"""torusradon benchmark: four closed-loop, single-client workloads.

    python3 benchmarks/run.py --workload planar-k32 --seed 1 --trace 0
    python3 benchmarks/run.py --seed 1          # every workload, one after another

Each run of a workload starts fresh worker processes (worker.py) with BLAS
pinned to one thread. With --trace 0 it reports the end-to-end metrics:
set-up is measured in SETUP_RUNS processes and reported as their median,
the operations in the last of them. Every time is given at reference speed,
raw seconds x R0 / r, where r is the median time of the reference kernel
(kernel.py) in the blocks run just before and just after that piece of
work. With --trace 1 one traced worker reports the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Files the workers of one run write (cli-files); removed when the run ends.
WORK = ROOT / "bench_out" / f"work-{os.getpid()}"
WORKLOADS = ("planar-k32", "bridge-k16", "hyperplane-n3", "cli-files")
# Nominal reference-kernel time in seconds: the median r measured on the
# reference host (see README.md). A constant, so metrics stay comparable.
R0 = 0.04
# Set-up is measured in this many fresh processes and reported as their
# median: one set-up ends with one warm-up operation, a single sample.
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# State that would otherwise change from run to run: bytecode left by an
# earlier run or a test session (every import compiles from source), string
# hashing, and transparent huge pages, whose availability and compaction
# stalls depend on the host's memory.
STEADY = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPYCACHEPREFIX": str(ROOT / "bench_out" / "no-pycache"),
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
           deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", str(WORK)]
    if setup_only:
        argv.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD, **STEADY}
    # A session of its own, so that a worker past its time is killed
    # together with its reference-kernel helper.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{workload}: worker did not finish in time") from e
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def at_reference(raw: float, r: float) -> float:
    return raw * R0 / r


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    runs = [worker(workload, seed, seconds, 0, True, deadline) for _ in range(SETUP_RUNS - 1)]
    main = worker(workload, seed, seconds, 0, False, deadline)
    runs.append(main)
    ops = [at_reference(op["raw"], op["r"]) for op in main["ops"]]
    metrics = {
        "setup_s": (statistics.median(at_reference(**run["setup"]) for run in runs), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    raw = [op["raw"] for op in main["ops"]]
    print(f"{workload}: {len(ops)} operations, one BLAS thread, R0 = {R0} s")
    for run in runs:
        parts = ", ".join(f"{k} {v:.4f} s" for k, v in run["setup_parts"].items())
        print(f"  setup raw {run['setup']['raw']:.4f} s ({parts}), r {run['setup']['r']:.6f} s,"
              f" at reference speed {at_reference(**run['setup']):.4f} s")
    print(f"  operation raw median {statistics.median(raw):.6f} s, raw total {sum(raw):.4f} s,"
          f" r median {statistics.median(op['r'] for op in main['ops']):.6f} s")
    return result(workload, runs, main, metrics)


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    main = worker(workload, seed, seconds, 1, False, deadline)
    metrics = {name: (main["per_layer"][name], unit) for name, unit in per_layer_units().items()}
    p50 = {kind: statistics.median(at_reference(op["raw"], op["r"])
                                   for op in main["ops"] if op["kind"] == kind)
           for kind in ("untraced", "spans", "alloc")}
    print(f"{workload}: traced run, spans in {main['trace_file']}")
    print(f"  tracing overhead: op_p50_s with spans {p50['spans']:.6f} s - untraced"
          f" {p50['untraced']:.6f} s = {p50['spans'] - p50['untraced']:+.6f} s;"
          f" with spans and tracemalloc {p50['alloc']:.6f} s")
    return result(workload, [main], main, metrics)


def result(workload, runs, main, metrics) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  attempted {main['attempted']}, failed {main['failed']}")
    for p in (p for run in runs for p in run["problems"]):
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all four, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    run = per_layer if args.trace else end_to_end
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            try:
                results[name] = run(name, args.seed, args.seconds, deadline)
            finally:
                shutil.rmtree(WORK, ignore_errors=True)
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
