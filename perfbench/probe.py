"""Host speed probe, run in a helper process beside the benchmark.

The speed of a shared host's CPU, memory system and page faulting
drifts by 10-25% within seconds.  The benchmark asks this helper for a probe reading at
fixed points of a run (before and after each set-up, and every
``PROBE_EVERY_S`` seconds of the timed loop) and rescales its timings by
the median reading.  The helper is a process of its own so that the
probe shares neither the heap, the allocator state nor the garbage
collector of the program under test: a change to the program cannot move
the probe.  While it runs, the benchmark process waits for its answer, so
the two never compete for a CPU.

Protocol: each line on standard input asks for one reading and names the
CPU the benchmark process last ran on (or is empty).  The helper moves to
that CPU, so that it measures the CPU the program runs on, runs the probe
once to refill the caches the program evicted, and answers with the
milliseconds of a second run on one line.  It exits at end of input.
"""

from __future__ import annotations

import mmap
import os
import sys
from time import perf_counter

import numpy as np

_DATA = np.random.default_rng(0).random(100_000)


def speed_probe() -> float:
    """Milliseconds for a fixed mix of interpreter, NumPy and page-fault work.

    Its parts mirror what the workloads spend their time on: bytecode,
    NumPy kernels over data in memory, and fresh memory for the large
    arrays every query allocates.  Of the three, the time to fault in a
    new mapping follows the workloads' own drift most closely.
    """
    started = perf_counter()
    acc = 0
    for i in range(4000):
        acc += i % 7
    np.sort(_DATA)
    fresh = mmap.mmap(-1, 4 << 20)  # a new mapping, so every page faults in
    pages = np.frombuffer(fresh, dtype=np.uint8)
    pages[:: mmap.PAGESIZE] = 1
    del pages
    fresh.close()
    return (perf_counter() - started) * 1e3


def main() -> None:
    for line in sys.stdin:
        if line.strip().isdigit():
            os.sched_setaffinity(0, {int(line)})
        speed_probe()
        print(f"{speed_probe():.6f}", flush=True)


if __name__ == "__main__":
    main()
