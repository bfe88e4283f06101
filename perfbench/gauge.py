"""Host speed gauge: scales measured latencies to a fixed reference speed.

Benchmark hosts are often shared.  On a 2-vCPU cloud VM the speed of the
same code changed by up to 1.7x in phases lasting from seconds to several
minutes, so the median latency of a run depended mostly on how much of it
fell in a slow phase.  A gauge times a fixed piece of reference work,
which involves nothing of extrig (so no change to the program moves it),
every second or so through the run.  A latency is scaled by the reference's
nominal time over the typical time of the NEAREST gauge samples nearest to
it: the result reads in seconds at the speed at which the reference takes
its nominal time.

The reference is the same kind of work as what it scales.  In-process
numerics are scaled by :func:`reference_kernel` (dict, set, sort and tuple
churn plus small SVDs, like extrig's graph bookkeeping and linear algebra).
CLI processes are scaled by :func:`reference_process` (a fresh interpreter
importing numpy), which also shares the cost of starting a process and
waiting for it, which the kernel does not see.

The kernel's times have rare spikes, so their typical time is the median.
A process's times fall on a few levels about 50 ms apart (on the VM above),
where a median snaps from one level to the next as their mix shifts, so
their typical time is the mean.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 1.0               # least time between two gauge samples
NEAREST = 10                # gauge samples whose typical time scales one latency
KERNEL_NOMINAL_S = 0.02     # nominal time of reference_kernel
PROCESS_NOMINAL_S = 0.15    # nominal time of reference_process

_MATRICES = [np.random.default_rng(0).normal(size=(n, n // 2 + 3)) for n in (24, 48, 96)]


def reference_kernel() -> None:
    for _ in range(4):
        groups = {}
        for i in range(8000):
            key = (i % 131, (i * 7) % 61)
            groups.setdefault(key[0], set()).add(key)
        sorted(((len(v), k) for k, v in groups.items()), reverse=True)
        [tuple(range(i % 9)) for i in range(5000)]
        for m in _MATRICES:
            np.linalg.svd(m)


def reference_process() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, timeout=60)


class Gauge:
    """Samples of one reference's time, and the scale factors they give."""

    def __init__(self, work, nominal_s: float, typical):
        self.work, self.nominal_s, self.typical = work, nominal_s, typical
        self.samples = []          # (midpoint, seconds)

    @classmethod
    def for_processes(cls, processes: bool) -> "Gauge":
        if processes:
            return cls(reference_process, PROCESS_NOMINAL_S, statistics.mean)
        return cls(reference_kernel, KERNEL_NOMINAL_S, statistics.median)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a latency timed over [t0, t1]: the nominal time over the
        typical time of the NEAREST samples nearest to that interval."""
        def distance(s):
            return max(t0 - s[0], s[0] - t1, 0.0)
        near = sorted(self.samples, key=distance)[:NEAREST]
        return self.nominal_s / self.typical([d for _, d in near])
