"""A fixed reference kernel, timed beside the program's runs.

The benchmark runs on a small share of a shared host whose speed drifts:
on a 2-vCPU VM the same pass of small-configs took 0.43 s in one minute and
0.86 s in another, with CPU time equal to wall time (the host slows the
vCPU; no time is stolen that the guest could see).  The drift lasts from
seconds to minutes, so the medians of ten 20 s runs of one workload spread
by 20-35 % between their quartiles.  The harness therefore times this
kernel between the runs, and a run's relative latency is its latency
divided by the median reference time within HALF_WINDOW_S before its
start and after its end.  One 16 ms timing is itself noisy
(a few ms of host preemption move it a lot), so the median over the
window, not the nearest timing, is the divisor.  The ratio moves only when
the program's own work changes, because the kernel uses nothing from
szegolab, and it cancels most of the drift: over ten 40 s runs the
quartile spread of det-sweep's pass time fell from 15 % to 5 %, that of
small-configs from 29 % to 10 %.  What is left is drift that slows the
program more than the kernel (small-configs' Python and file work).

The kernel does one of each kind of work the program does: interpreted
Python, many small numpy calls, a dense LU (256) and a dense symmetric
eigensolve (128).  It takes about 16 ms on one 2 GHz Xeon core.
"""

import bisect
import statistics
import time

import numpy as np

HALF_WINDOW_S = 1.5
NOMINAL_S = 0.016  # the kernel's time on one idle 2 GHz Xeon core; sets setup_s's scale


class Reference:
    """Callable: runs the kernel once and returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(2006)  # fixed: the same work on every seed
        self.lu = rng.normal(size=(256, 256))
        half = rng.normal(size=(128, 128))
        self.sym = half + half.T
        self.small = rng.normal(size=(64, 64))
        self.ends: list[float] = []  # perf_counter at the end of each timing
        self.times: list[float] = []
        for _ in range(3):  # warm the kernel's caches and code paths up
            self()
        self.clear()

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i % 7
        row = self.small[0]
        for _ in range(200):
            np.fft.fft(row)
            self.small @ row
            np.abs(self.small).sum()
        for _ in range(3):
            np.linalg.slogdet(self.lu)
        for _ in range(3):
            np.linalg.eigvalsh(self.sym)
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)
        return end - start

    def clear(self) -> None:
        self.ends.clear()
        self.times.clear()

    def around(self, start: float, stop: float) -> float:
        """Median reference time within HALF_WINDOW_S of [start, stop]."""
        lo = bisect.bisect_left(self.ends, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, stop + HALF_WINDOW_S)
        return statistics.median(self.times[lo:hi])
