"""Machine-speed calibration for timings on a shared, drifting host.

On a host shared with other tenants the same pass can run 30% slower a
minute later.  A profiling timer interrupts the worker every PERIOD_S of
CPU time and runs a fixed pure-Python snippet; its durations sample the
machine's speed throughout the pass.  An interval's time is then reported
at reference speed: its wall time, minus the snippets run inside it, times
REFERENCE_S over the median snippet duration around it.  The snippet does
not touch cycperm, so changes to cycperm are not cancelled out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
# Typical snippet duration on a 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_S = 0.0004
WINDOW_S = 0.25  # snippets this close to an interval also calibrate it


def snippet() -> int:
    acc = 0
    table = {}
    items = []
    for i in range(1600):
        acc += (i * 7) % 13
        table[i & 31] = acc
        items.append((acc, i))
    items.sort()
    return acc + len(table) + items[-1][1]


class SpeedProbe:
    """Samples snippet durations while active (``with SpeedProbe() as p``)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        snippet()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] takes at reference speed."""
        starts, durs = self.starts, self.durations
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        own = t1 - t0 - sum(durs[lo:hi])
        wlo = bisect.bisect_left(starts, t0 - WINDOW_S)
        whi = bisect.bisect_left(starts, t1 + WINDOW_S)
        near = durs[wlo:whi]
        if not near:
            if not durs:
                return own
            i = min(lo, len(durs) - 1)
            near = durs[max(i - 1, 0):i + 1]
        return own * REFERENCE_S / statistics.median(near)
