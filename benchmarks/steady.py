"""Steadiness check: run every workload k times and compare the spread of
each end-to-end metric with its bound in BENCHMARK.json.

    python3 benchmarks/steady.py --runs 10            # one set, seeds 1..10
    python3 benchmarks/steady.py --runs 10 --sets 2   # two sets, run alternately

Each run is `run.py --workload W --seed S --trace 0` with its own seed, and
lasts run_seconds of BENCHMARK.json. Set 1 uses seeds 1.., set 2 seeds
101... For each workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the quartile spread (q3 - q1) / median and the
range (max - min) / median. The range must be within the metric's bound for
every metric, setup_s included; a quartile spread below a third of the bound
is marked steady. With two sets the two medians must differ by no more than
the bound, in either direction, and the share of failed operations must be
the same in every run. It ends with a markdown table of both sets and writes
the raw results to bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    out["log"] = lines[:-1]
    return out


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "range_share": (max(values) - min(values)) / med}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {(set_i, name): [] for set_i in range(args.sets) for name in names}
    for i in range(args.runs):
        for set_i in range(args.sets):
            for name in names:
                seed = 1 + 100 * set_i + i
                res = run_once(name, seed)
                results[set_i, name].append(res)
                print(f"set {set_i + 1} run {i + 1} {name} seed {seed}: "
                      + ", ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items())
                      + f", failed {res['failed']}/{res['attempted']},"
                      f" correct {res['correct']}, wall {res['wall_s']:.1f} s", flush=True)

    ok = True
    rows = []
    for name in names:
        print(f"\n{name}")
        shares = set()
        for set_i in range(args.sets):
            runs = results[set_i, name]
            ok &= all(r["correct"] for r in runs)
            shares |= {(r["failed"], r["attempted"]) for r in runs}
        share_values = {f / a for f, a in shares}
        print(f"  failed/attempted: {sorted(shares)} -> "
              f"{'one share' if len(share_values) == 1 else 'SHARES DIFFER'}")
        ok &= len(share_values) == 1
        for m in metrics:
            bound = m["bound"]
            sums = [summary([r["metrics"][m["name"]]["value"] for r in results[set_i, name]])
                    for set_i in range(args.sets)]
            for set_i, s in enumerate(sums):
                within = s["range_share"] <= bound
                ok &= within
                print(f"  {m['name']:12s} set {set_i + 1}: median {s['median']:.6g} {m['unit']}"
                      f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                      f" iqr/median {s['iqr_share']:.4f}"
                      f" {'steady' if s['iqr_share'] <= bound / 3 else 'WIDE'}"
                      f" range/median {s['range_share']:.4f}"
                      f" {'within' if within else 'OUTSIDE'} bound {bound}")
            diff = None
            if args.sets == 2:
                a, b = sums[0]["median"], sums[1]["median"]
                diff = (b - a) / a
                ok &= abs(diff) <= bound
                print(f"  {m['name']:12s} set 2 vs set 1: {diff:+.4f}"
                      f" ({'within' if abs(diff) <= bound else 'OUTSIDE'} bound {bound})")
            rows.append((name, m, sums, diff))

    print("\n| Workload | Metric | Bound |"
          + "".join(f" Set {s + 1} median [q1, q3] | IQR / range |" for s in range(args.sets))
          + (" Set 2 vs set 1 |" if args.sets == 2 else ""))
    print("| --- | --- | --- |" + " --- | --- |" * args.sets + (" --- |" if args.sets == 2 else ""))
    for name, m, sums, diff in rows:
        print(f"| `{name}` | `{m['name']}` ({m['unit']}) | {m['bound']} |"
              + "".join(f" {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] |"
                        f" {s['iqr_share']:.3f} / {s['range_share']:.3f} |" for s in sums)
              + (f" {diff:+.3f} |" if diff is not None else ""))

    out = ROOT / "bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({f"set{s + 1}:{n}": v for (s, n), v in results.items()}, indent=1))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    print("verdict:", "within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
