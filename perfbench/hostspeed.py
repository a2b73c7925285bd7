"""Host-speed correction of wall times.

On a shared host the speed of one core drifts by tens of percent over seconds
and minutes, which swamps the differences between two commits.  A fixed
calibration kernel is timed between jobs (at most once per EVERY_S seconds);
a wall time of at most LONG_JOB_S measured between two calibrations is
scaled by REFERENCE_S / (mean of the two kernel times), i.e. expressed at the
speed at which the kernel takes REFERENCE_S.  The kernel mixes the three
kinds of work oqsolve's jobs do: interpreter-bound Python, small dense matrix
products and long complex-array arithmetic.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REFERENCE_S = 0.08
# A job longer than this averages the fast drift over its own duration, and
# the two kernel timings around it (seconds from its middle) do not describe
# its average speed, so its wall time is left as measured.
LONG_JOB_S = 10.0
EVERY_S = 1.0


class HostSpeed:
    def __init__(self):
        self.starts = []
        self.ends = []
        self.seconds = []
        rng = np.random.default_rng(0)
        self._z = np.arange(1, 120_001) * 0.5 + 0j
        self._a = rng.normal(size=self._z.size) + 0j
        self._m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def _kernel(self):
        counts = {}
        for i in range(30_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        m = self._m
        for _ in range(1_500):
            m = np.kron(self._m[:2, :2], self._m[:2, :2]) @ (m / np.abs(m).max())
        for k in range(8):
            np.sum(self._a * np.exp(-self._z * 0.01 * k) / (self._z + 1j))

    def calibrate(self, force=False):
        """Time the kernel unless the last calibration is younger than EVERY_S."""
        now = time.perf_counter()
        if not force and self.ends and now - self.ends[-1] < EVERY_S:
            return
        self._kernel()
        end = time.perf_counter()
        self.starts.append(now)
        self.ends.append(end)
        self.seconds.append(end - now)

    def scale(self, t0, t1):
        """Factor for a wall time measured over [t0, t1]: REFERENCE_S over the
        mean kernel time of the last calibration before t0 and the first after
        t1; 1 for wall times longer than LONG_JOB_S."""
        if t1 - t0 > LONG_JOB_S:
            return 1.0
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        picks = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return REFERENCE_S / (sum(picks) / len(picks))
