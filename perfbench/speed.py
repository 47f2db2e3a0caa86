"""A machine-speed probe that the benchmark's times are scaled by.

The benchmark shares its machine with other work, and that machine's speed
drifts by 20% and more over seconds (CPU time drifts with it, so this is
not scheduling).  Between operations the benchmark runs a small fixed
probe of the same kinds of work the library does (Python bytecode, big
integers, small int64 numpy arrays) and scales each operation's time by
``PROBE_REF_S`` over the mean of the probes just before and just after it.
A time so scaled reads as it would on a machine whose probe takes
``PROBE_REF_S``; the probe is benchmark code, so no library change can
move it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.0028  # probe median on an idle 2-core Intel Xeon box
MIN_GAP_S = 0.01  # operations closer together than this share probes


def probe() -> float:
    """Seconds taken by one run of the fixed probe work."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += (i * 2654435761) % 1000003
    x = 3 ** 400
    for i in range(300):
        x = (x * 7919 + i) % (10 ** 120 + 7)
    a = np.arange(3600, dtype=np.int64).reshape(60, 60)
    for i in range(20):
        a = (a * 31 + a[i][None, :]) % 2147483629
    return perf_counter() - t0


class SpeedTrack:
    """Probe results by the time they ended, and the scale they give."""

    def __init__(self):
        self.ends = []
        self.values = []

    def tick(self, force: bool = False):
        if force or not self.ends or perf_counter() - self.ends[-1] >= MIN_GAP_S:
            value = probe()
            self.ends.append(perf_counter())
            self.values.append(value)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe bracketing the interval."""
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.ends, end)
        near = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return PROBE_REF_S / (sum(near) / len(near))
