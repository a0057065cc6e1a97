"""Host speed gauge: a fixed reference kernel timed between measured steps.

On a shared machine the speed of one core drifts by up to 2x over seconds
to minutes (other tenants, SMT siblings, frequency), and a whole run can
fall into a slow stretch, so neither the fastest nor the median pass is
steady across runs. The gauge runs a small fixed kernel of the kind of
work that dominates the package (building, sorting and grouping Python
tuples, lists and dicts) next to each measured step, outside its timing.
A measured time is then reported at the reference speed:

    time * REF_S / (median kernel time around it)

The kernel is the benchmark's own code and never changes with the
package, so a change to the package moves the reported time by as much as
it moves the raw time at any fixed host speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Sets the scale of the reported times: about the kernel's time on a
# 2-core x86-64 VM (Python 3.11, numpy 2.4) in its faster stretches. There,
# a set of runs had a median kernel time of 0.47 to 0.61 ms. Reported times
# are the times that machine would have shown at the speed of REF_S.
REF_S = 0.4e-3
# Ticks on each side of a step whose median scales it.
HALF = 5

_KEYS = [int(k) for k in np.random.default_rng(0).integers(0, 1 << 30, 800)]


def kernel() -> int:
    pairs = [(k % 1009, k) for k in _KEYS]
    pairs.sort()
    groups: dict[int, list] = {}
    for group, key in pairs:
        groups.setdefault(group, []).append(key)
    return len(groups)


class Gauge:
    """Kernel runs in the order they were taken, as [start, end] and time;
    a tick's index places a measured step between its neighbours."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.times: list[float] = []

    def tick(self) -> int:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        self.times.append(t1 - t0)
        return len(self.times) - 1

    def ticks(self, count: int) -> int:
        for _ in range(count):
            self.tick()
        return len(self.times)

    def scale(self, lo: int, hi: int) -> float:
        """REF_S over the median kernel time of ticks lo..hi-1."""
        return REF_S / statistics.median(self.times[max(lo, 0):hi])

    def around(self, index: int) -> float:
        """The scale over the ticks within HALF of tick `index`."""
        return self.scale(index - HALF, index + HALF + 1)

    def scaled(self, t0: float, t1: float, lo: int) -> float:
        """Wall time from t0 to t1, which holds ticks lo.. to the last,
        without those ticks, each stretch scaled by the ticks around the
        tick after it (the last stretch by the last tick)."""
        total, prev = 0.0, t0
        for i in range(lo, len(self.spans)):
            start, end = self.spans[i]
            total += (start - prev) * self.around(i)
            prev = end
        return total + (t1 - prev) * self.around(len(self.spans) - 1)
