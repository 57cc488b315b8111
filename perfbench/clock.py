"""Batch timing rescaled to a fixed machine speed.

On a shared 2-vCPU virtual machine the same interpreter-bound work can
take twice as long in one stretch of seconds as in the next (a fixed loop
took 23 to 50 ms within one minute), and raw medians of 30-second runs
differed by 20-40% between runs, more than any useful bound.  So the
batch is timed in segments of at least SEGMENT_S, a fixed stdlib probe
(Fraction sums and tuple-keyed dict updates, like linfam's inner loops)
runs between segments, and each segment's time is scaled by
NOMINAL_PROBE_S over the mean of the probes on either side.  Reported
times are therefore seconds on a machine where the probe takes
NOMINAL_PROBE_S.  The raw times are kept beside them.
"""
from __future__ import annotations

import resource
import time
from fractions import Fraction

NOMINAL_PROBE_S = 0.010
SEGMENT_S = 0.15


def _probe_work():
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    d: dict = {}
    for i in range(30000):
        k = (i % 97, i & 7)
        d[k] = d.get(k, 0) + i
    return acc, len(d)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """User plus system time of this process and of children it waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Accumulates raw and speed-scaled wall and CPU time over the items of
    a batch; probes run between segments, outside the timed items."""

    def __init__(self):
        self.raw_wall = self.raw_cpu = 0.0
        self.wall = self.cpu = 0.0
        self.probes: list[float] = []
        self._seg_wall = self._seg_cpu = 0.0
        probe()   # warm-up: the first run after start-up reads slow
        self._last_probe = probe()
        self.probes.append(self._last_probe)

    def call(self, fn, *args):
        """fn(*args), timed as one item of the batch."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._seg_wall += time.perf_counter() - t0
            self._seg_cpu += cpu_seconds() - c0
            if self._seg_wall >= SEGMENT_S:
                self._close_segment()

    def finish(self) -> None:
        if self._seg_wall > 0:
            self._close_segment()

    def _close_segment(self) -> None:
        p = probe()
        self.probes.append(p)
        scale = NOMINAL_PROBE_S / ((self._last_probe + p) / 2)
        self.raw_wall += self._seg_wall
        self.raw_cpu += self._seg_cpu
        self.wall += self._seg_wall * scale
        self.cpu += self._seg_cpu * scale
        self._last_probe = p
        self._seg_wall = self._seg_cpu = 0.0
