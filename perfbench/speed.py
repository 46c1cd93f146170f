"""A speed probe that takes the host's own drift out of the timings.

On a shared host the same work can run 20% slower for minutes at a
time.  Timing a fixed pure-Python loop interleaved with the workload
tracks that drift closely: over six identical 100-tick blocks of
``live-stress`` on a 2-core host, block wall time spread 22% (IQR over
median) while its ratio to the interleaved probe spread 3.4%.

Every end-to-end timing is therefore reported at a *nominal* host
speed: measured seconds × NOMINAL_PROBE_S / median probe seconds (rates
the other way round).  The raw figures and the speed factor are printed
with every run.  The probe never touches the program under test.
"""

from __future__ import annotations

import time
from typing import List

from . import stats

#: probe duration, in seconds, that defines the nominal host
NOMINAL_PROBE_S = 3.0e-3
#: take a probe sample once this much timed work has passed
PROBE_EVERY_S = 0.1
_ITERATIONS = 20_000


def probe_seconds() -> float:
    """CPU time of one fixed loop of interpreter work on this thread.

    Thread CPU time, not wall time, so a probe on a thread that shares
    the interpreter lock is not charged for waiting on it.
    """
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(_ITERATIONS):
        acc += i * i % 7
        table[i % 512] = acc
    return time.thread_time() - t0


class SpeedProbe:
    """Collects probe samples between units of timed work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        self.samples.append(probe_seconds())

    def maybe(self, timed_s: float) -> None:
        """Sample when another PROBE_EVERY_S of timed work has passed."""
        if timed_s >= self._due:
            self.sample()
            self._due = timed_s + PROBE_EVERY_S

    def slowdown(self) -> float:
        """How much slower than nominal the host ran (>1 = slower)."""
        if not self.samples:
            self.sample()
        return stats.median(self.samples) / NOMINAL_PROBE_S
