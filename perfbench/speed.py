"""Machine-speed probe used to put item times on a reference scale.

The 2-vCPU machine the benchmark was built on changes speed by phases: the
same work can take up to 1.7 times longer for a few hundred milliseconds
to tens of seconds, and the thread's own CPU time rises with it, so the
slowdown is in the processor, not in waiting. Raw wall-clock figures of
ten runs then spread by a quarter or more.

The child therefore samples a fixed calibration kernel between items. The
kernel does a little interpreter work (integer and float arithmetic in a
Python loop) and a little numpy work on 64-element arrays, and calls no
BLAS routine and no gradcert code. The program could still slow it from
outside, through OpenBLAS worker threads that keep spinning on the other
vCPU after a threaded call. On the 2-vCPU machine that was not seen: the
kernel, sampled right after a dim-200 grid item, took 0.995 of its time
after a 0.3 s idle pause (median of 60 alternating pairs, quartiles 0.87
and 1.11), and 0.996 with one BLAS thread; after the benchmark's own
grid_large and noise_sweep items the ratio was 0.98 and 1.03 (40 pairs
each). An item that ran while the kernel took ``k`` seconds is
scaled by ``(KERNEL_REF_S / k) ** SENSITIVITY``, with ``k`` the median of
the samples taken within ``WINDOW_S`` of the item. The scaled times read
as if the kernel took ``KERNEL_REF_S``; the raw wall-clock figures stay in
the report.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Kernel time that defines the reference scale: about its cost on the
# 2-vCPU machine this was tuned on in a fast phase.
KERNEL_REF_S = 2.8e-4
# At most one sample per SAMPLE_EVERY_S; samples within WINDOW_S of an item
# set its scale.
SAMPLE_EVERY_S = 0.02
# The machine's speed changes within milliseconds, so a short window follows
# it more closely: on noise_sweep items the scaled times spread by 0.05 with
# 0.3 s and by 0.06 with 1 s (quartile distance over median).
WINDOW_S = 0.3

# How much of the kernel's slowdown gradcert's work shares: an item is
# scaled by (KERNEL_REF_S / k) ** SENSITIVITY. The kernel slows more than
# the workloads do, so with an exponent of 1 a run in a slow phase read
# faster than one in a fast phase. Over 8 runs of 20 s each of noise_sweep,
# grid_small and grid_large, the quartile spread of items_per_s over its
# median was 0.054, 0.080 and 0.148 with 1, and 0.025, 0.025 and 0.114
# with 0.75; exponents from 0.6 to 0.9 were all steadier than 1.
SENSITIVITY = 0.75

_MASK64 = (1 << 64) - 1


def _kernel(vector) -> float:
    t0 = time.perf_counter()
    x = 1
    acc = 0.0
    for _ in range(600):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        acc += math.sqrt((x >> 11) * 2.0**-53 + 1.0)
    v = vector
    for _ in range(60):
        v = v * 0.5 + 1.0
        acc += float((v * v).sum())
    return time.perf_counter() - t0


def factor(kernel_s: float) -> float:
    """Scale factor for work done while the kernel took kernel_s seconds."""
    return (KERNEL_REF_S / kernel_s) ** SENSITIVITY


class SpeedProbe:
    def __init__(self):
        self._vector = np.ones(64)
        self.times = []  # perf_counter at each sample
        self.kernel_s = []  # kernel seconds at each sample

    def sample(self, force: bool = False) -> None:
        """Time the kernel (best of three, so a cold cache does not count)."""
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < SAMPLE_EVERY_S:
            return
        self.kernel_s.append(min(_kernel(self._vector) for _ in range(3)))
        self.times.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Factor that puts an item run over [start, end] on the reference scale."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.kernel_s[lo:hi]
        if not window:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            window = [self.kernel_s[nearest]]
        return factor(statistics.median(window))
