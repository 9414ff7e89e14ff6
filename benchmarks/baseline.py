"""Single-threaded re-measurement of the layer baseline cases listed in
ROADMAP.md item 1 (not part of the timed workloads).

    python3 benchmarks/baseline.py

Each case prints its best wall time over REPS calls (one call for the K=32
bridge, which takes tens of seconds) and, for forward_sinogram, the
tracemalloc peak of a separate call. The K=48 cases hold about 1 GB.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import torusradon as T  # noqa: E402

REPS = 3


def best(fn, reps=REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def field(K: int):
    return T.random_field(2, K, np.random.default_rng(K), real=True)


def main() -> None:
    rows = []
    cover32 = T.direction_cover(32)
    sino = T.disk_sinogram(cover32, 256, 0.2)
    rows.append(("bridge_ingest, K=32, N=256, 1,296 directions",
                 f"{best(lambda: T.bridge_ingest(sino, cover32, 32), reps=1):.2f} s"))
    del sino
    for K in (32, 48):
        f, cover = field(K), T.direction_cover(K)
        t = best(lambda: T.forward_sinogram(f, cover))
        rows.append((f"forward_sinogram, K={K}",
                     f"{t:.2f} s, {peak_mb(lambda: T.forward_sinogram(f, cover)):.0f} MB peak"))
    g = T.forward_sinogram(f, cover)
    w = T.canonical_weight(cover, 48)
    rows.append(("invert_filtered, K=48", f"{best(lambda: T.invert_filtered(g, w)):.2f} s"))
    g0 = g.without_mean()
    rows.append(("invert_sum, K=48", f"{best(lambda: T.invert_sum(g0)):.2f} s"))
    del g, g0
    g16 = T.forward_sinogram(field(16), T.direction_cover(16))
    rows.append(("reconstruct_slices, K=16", f"{best(lambda: T.reconstruct_slices(g16)):.2f} s"))
    print("| Case | Measured, one BLAS thread |\n| --- | --- |")
    for case, figure in rows:
        print(f"| `{case.split(',')[0]}`{case[len(case.split(',')[0]):]} | {figure} |")


if __name__ == "__main__":
    main()
