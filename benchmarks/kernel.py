"""The reference kernel, run in a helper process of its own.

    python3 benchmarks/kernel.py     # reads a repetition count per line

worker.py starts this process and, whenever the program is idle, writes a
repetition count to its standard input and waits for the reply: one JSON
list of kernel times in seconds. The kernel runs in its own process so that
its arrays never count in the peak resident memory of the worker, which is
the program's. The process ends when its standard input closes.
"""

import json
import sys
import time

import numpy as np


class ReferenceKernel:
    """Fixed work that touches no torusradon code, in four parts: np.exp on
    an 8 MB complex array (arithmetic), a scaled copy of a 16 MB array and a
    fresh 32 MB array written every seventh element (memory traffic and page
    faults), and a pure-Python integer loop (the interpreter). Its time,
    measured right before and right after a piece of work, gives the host's
    speed at that moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.phases = 1j * rng.standard_normal(2**19)
        self.big = rng.standard_normal(2**21)
        self.block(1)  # first call pays one-time costs; not a sample

    def block(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            np.exp(self.phases)
            scaled = self.big * 1.0001 + 0.5
            fresh = np.zeros(2**21, dtype=np.complex128)
            fresh[::7] = scaled[0]
            total = 0
            for j in range(20000):
                total += j * j % 7
            times.append(time.perf_counter() - start)
        return times


def main() -> int:
    kernel = ReferenceKernel()
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(kernel.block(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
