"""Machine-speed references for the end-to-end times.

On a shared machine, co-tenants slow every instruction of this process by
up to 1.8x, for stretches from a second to minutes; CPU time then equals
wall time, so it is not time slicing, and no statistic over one run's own
repeats can remove a stretch that covers the whole run.  The benchmark
therefore times fixed reference work throughout the run and divides each
end-to-end time by the run's slowdown: the median reference time over its
calibrated value.  Times then read as on the calibration machine (2-core
Intel Xeon, KVM, 2.0 GHz) when nothing slowed it; run.py prints the raw
times alongside.

Two references, because the two kinds of timed work slow differently:

- in-process cells are compute in the interpreter and numpy, matched by
  `reference_kernel`, timed after every SAMPLE_EVERY_S of cell work;
- CLI processes and set-up imports are mostly process start-up (file
  reads, `dlopen`, page faults), matched by a fresh `python -c "import
  numpy"`, timed before each of them.  Dividing these by the kernel
  widened their spread; the process reference narrows it.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Calibrated times of the two references when no co-tenant slowed them.
REFERENCE_KERNEL_MS = 2.0
REFERENCE_PROCESS_MS = 150.0
# Seconds of cell work between two kernel samples.
SAMPLE_EVERY_S = 0.1

_X = np.linspace(0.0, 1.0, 4096)


def reference_kernel() -> float:
    """Fixed work in the library's three styles: an interpreter loop (per
    atom, per replicate), many small numpy calls (short windows), and
    throughput-bound array passes (uniform streams, sorts)."""
    acc = 0.0
    for i in range(6_000):
        acc += math.sqrt(i)
    for _ in range(300):
        acc += float(np.cumprod(_X[:64])[-1])
    for _ in range(12):
        acc += float(np.sort(np.sin(_X * 7.0))[0])
    return acc


def reference_process_ms(env: dict) -> float:
    """Wall milliseconds of a fresh interpreter importing numpy."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True, timeout=60)
    return (perf_counter() - t0) * 1e3


class KernelProbe:
    """Reference-kernel samples taken between in-process cells."""

    def __init__(self):
        self.samples_ms: list = []
        self._last = 0.0

    def maybe_sample(self) -> None:
        """Sample when SAMPLE_EVERY_S of work has passed since the last one."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            t0 = perf_counter()
            reference_kernel()
            self._last = perf_counter()
            self.samples_ms.append((self._last - t0) * 1e3)


def slowdown(samples_ms, reference_ms: float) -> float:
    """How much slower than calibrated the machine ran: median sample / reference."""
    return statistics.median(samples_ms) / reference_ms
