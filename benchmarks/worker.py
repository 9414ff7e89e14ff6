"""One run of one workload, in a fresh process started by run.py.

Set-up is everything from the first line of this file to the end of the
warm-up operation, less the warm-up's own checks: package import, inputs,
covers, weights and one operation whose figures are left out of the
operation metrics. Then, unless --setup-only, operations run back to back
until --seconds have passed. A block of the reference kernel runs in a
helper process (kernel.py) before set-up (left out of the set-up time),
after set-up and after every operation, while the program is idle, so the
kernel's arrays never count in this process's peak resident memory. The
last line of standard output is one JSON object of
raw seconds, each with its r; run.py turns them into metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"
KERNEL_REPS = 5


class KernelProcess:
    """The reference kernel (kernel.py) in a helper process. `block` asks it
    for `reps` kernel times and waits for them, so the kernel runs while
    this process, and the program in it, is idle."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "kernel.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel process ended")
        return line

    def block(self, reps: int = KERNEL_REPS) -> list[float]:
        self.proc.stdin.write(f"{reps}\n")
        self.proc.stdin.flush()
        return json.loads(self._reply())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def import_program():
    """Import torusradon from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusradon

    if not Path(torusradon.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"torusradon came from {torusradon.__file__}, not {src}")
    import workloads

    return workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work-dir", required=True, help="scratch directory for files")
    args = p.parse_args()

    # One CPU for this process and the kernel helper it starts, so that the
    # kernel times the same CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    before = time.perf_counter()
    kernel = KernelProcess()
    try:
        pre = kernel.block()
        kernel_s = time.perf_counter() - before
        result = run(args, kernel, pre, kernel_s)
    finally:
        kernel.close()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def run(args, kernel, pre, kernel_s) -> dict | None:
    try:
        workloads = import_program()
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return None
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    tr = Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    problems: list[str] = []

    def operation(i: int) -> tuple[float, int, int]:
        timed = workloads.Stopwatch()
        try:
            attempted, failed = wl.operation(i, tr, timed)
        except workloads.CheckFailed as e:
            problems.append(f"operation {i}: {e}")
            attempted, failed = 1, 1
        return timed.seconds, attempted, failed

    tr.enabled = bool(args.trace)
    wl.setup(tr)
    tr.enabled = False
    inputs_raw = time.perf_counter() - T0 - kernel_s
    warmup_raw = operation(0)[0]
    after = kernel.block()
    result = {"setup": {"raw": inputs_raw + warmup_raw, "r": statistics.median(pre + after)},
              "setup_parts": {"inputs": inputs_raw, "warmup": warmup_raw}}
    if not args.setup_only:
        result.update(measure(args, tr, operation, kernel, after))
    result.update(correct=not problems, problems=problems[:5],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write_jsonl(path)
        result.update(per_layer=tr.per_layer(), trace_file=str(path.relative_to(ROOT)))
    return result


def measure(args, tr, operation, kernel, before) -> dict:
    """Closed loop for --seconds. Each operation carries r, the median
    kernel time of the blocks run just before and just after it. A traced
    run cycles through three kinds of operation: spans only (the per-layer
    times), untraced (the baseline the tracing overhead is measured against)
    and spans with tracemalloc (the allocation peaks, whose bookkeeping would
    distort the times)."""
    ops, attempted, failed = [], 0, 0
    least = 3 if args.trace else 1
    start = time.perf_counter()
    i = 0
    while len(ops) < least or time.perf_counter() - start < args.seconds:
        i += 1
        kind = ("spans", "untraced", "alloc")[(i - 1) % 3] if args.trace else "untraced"
        tr.op, tr.enabled = i, kind != "untraced"
        if kind == "alloc":
            tr.alloc_ops.add(i)
            tracemalloc.start()
        seconds, att, fail = operation(i)
        if kind == "alloc":
            tracemalloc.stop()
        tr.enabled = False
        after = kernel.block()
        ops.append({"raw": seconds, "r": statistics.median(before + after), "kind": kind})
        before = after
        attempted += att
        failed += fail
    return {"ops": ops, "attempted": attempted, "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
