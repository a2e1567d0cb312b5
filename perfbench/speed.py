"""How fast the CPU runs at the moment, sampled while the workload runs.

The CPU of a shared machine slows down and speeds up by up to a factor of
two over seconds to minutes, and both the program and any other Python
code slow down together.  A fixed reference computation, run every
``INTERVAL`` seconds from a timer signal, measures that speed in the same
time window as the work.  A time multiplied by ``scale()`` is the time the
work would have taken on a CPU that runs the reference in
``REFERENCE_SECONDS``: it no longer depends on the neighbours' load, and it
still moves with every change to the work itself.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import oracle

INTERVAL = 0.02
WINDOW = 0.5
REFERENCE_SECONDS = 2.5e-4
_CYCLE = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-1, -1), (0, -1)]


def reference():
    """Seconds taken by the reference computation, with collection off so
    that the program's garbage is not collected on the reference's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        oracle.gl2_normal_form(_CYCLE)
        oracle.gl2_normal_form(_CYCLE)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Runs the reference from SIGALRM and keeps every sample.

    ``busy`` is the wall time spent in the handler, to be taken out of the
    times measured around the work."""

    def __init__(self):
        self.busy = 0.0
        self.at = []
        self.took = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        took = reference()
        self.at.append(t)
        self.took.append(took)
        self.busy += time.perf_counter() - t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """Reference speed over [start, end], widened about its middle to at
        least ``WINDOW`` seconds so that short operations get enough samples."""
        middle, half = (start + end) / 2, max(end - start, WINDOW) / 2
        lo = bisect.bisect_left(self.at, middle - half)
        hi = bisect.bisect_right(self.at, middle + half)
        return REFERENCE_SECONDS * (hi - lo) / sum(self.took[lo:hi]) if hi > lo else 1.0


def scaled_seconds(seconds, repeats=25):
    """A time measured just before, scaled by the reference run now."""
    return seconds * REFERENCE_SECONDS * repeats / sum(reference() for _ in range(repeats))
