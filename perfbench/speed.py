"""How fast the machine runs while the benchmark measures.

The CPU speed of a shared machine drifts by tens of percent within
minutes, for identical work, with no steal time showing.  A sampler
thread runs a fixed interpreter-bound kernel, which touches no pebblekit
code, every ``PERIOD_S`` seconds on the same CPU as the queries; the
median kernel time over a run, divided by ``NOMINAL_S``, is the run's
slowdown.  Times divided by it are times at nominal speed.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time

NOMINAL_S = 0.012
PERIOD_S = 0.3
# a kernel run must not be cut by the interpreter's thread switching
SWITCH_INTERVAL_S = 0.05
NEAR = 5


def pin_to_one_cpu() -> None:
    """Keep this thread, and the threads and processes it starts later, on
    one CPU, so the sampler measures the CPU the queries run on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass            # left unpinned, the sampler may read another CPU


def kernel() -> float:
    """CPU seconds one run of the reference kernel takes now.  CPU time,
    not wall time, so native code that runs beside it without the
    interpreter lock (the MILP solver) does not count as a slow machine."""
    t0 = time.thread_time()
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(30_000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return time.thread_time() - t0


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._interval = sys.getswitchinterval()

    def __enter__(self) -> "SpeedSampler":
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            self.samples.append(kernel())
            self.times.append(t)

    def slowdown(self) -> float:
        if not self.samples:
            self.samples.append(kernel())
            self.times.append(time.perf_counter())
        return statistics.median(self.samples) / NOMINAL_S

    def slowdown_near(self, start: float, end: float) -> float:
        """The slowdown from the samples taken during [start, end], or from
        the NEAR samples closest to its middle when fewer fell inside."""
        inside = [d for t, d in zip(self.times, self.samples) if start <= t <= end]
        if len(inside) < NEAR:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            inside = [self.samples[i] for i in order[:NEAR]]
        return statistics.median(inside) / NOMINAL_S if inside else self.slowdown()
