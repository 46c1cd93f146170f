"""Resource models shared by the tier servers.

These classes capture the *physical* behaviour the paper's testbed
exhibits and that the learning pipeline depends on:

* a bounded **worker pool** (Tomcat worker threads, MySQL connections)
  with a FIFO admission queue in front of it;
* a **CPU contention model** that inflates service times as concurrency
  grows (context-switch overhead plus cache pollution), producing the
  throughput *droop* past saturation described in Section I of the
  paper; and
* a **cache model** (processor L2 / database buffer pool) whose miss
  rate responds to concurrency and offered working set — the raw signal
  the hardware-counter metrics expose and OS-level metrics do not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

__all__ = [
    "ContentionModel",
    "CacheModel",
    "WorkerPool",
    "QueueStats",
]


@dataclass(frozen=True)
class ContentionModel:
    """Concurrency-dependent slowdown of a multi-core CPU.

    With ``n`` requests in service on ``cores`` cores, each request
    progresses at ``rate(n)`` of nominal single-core speed:

    ``rate(n) = min(1, cores / n) * efficiency(n)``

    where ``efficiency(n) = 1 / (1 + cs_overhead * max(0, n - cores))``
    models time lost to context switching and scheduler overhead.  Cache
    pollution is handled separately by :class:`CacheModel` because it
    must also surface in the synthetic hardware counters.

    Attributes
    ----------
    cores:
        Number of physical cores (the paper's app server is a 1-core
        Pentium 4, the DB server a 2-core Pentium D).
    cs_overhead:
        Fractional efficiency loss per runnable thread beyond the core
        count.  Positive values make aggregate goodput *decrease* past
        saturation instead of flattening.
    """

    cores: int = 1
    cs_overhead: float = 0.004

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if not self.cs_overhead >= 0:
            raise ValueError("cs_overhead must be non-negative")

    def efficiency(self, n_active: int) -> float:
        """Fraction of CPU time doing useful work with ``n_active`` threads."""
        if n_active <= 0:
            return 1.0
        excess = max(0, n_active - self.cores)
        return 1.0 / (1.0 + self.cs_overhead * excess)

    def per_request_rate(self, n_active: int) -> float:
        """Progress rate of one request relative to an idle single core."""
        if n_active <= 0:
            return 1.0
        share = min(1.0, self.cores / n_active)
        return share * self.efficiency(n_active)

    def aggregate_rate(self, n_active: int) -> float:
        """Total useful work per second across all cores."""
        if n_active <= 0:
            return 0.0
        return min(n_active, self.cores) * self.efficiency(n_active)


@dataclass(frozen=True)
class CacheModel:
    """A set-associative-cache / buffer-pool pressure model.

    The model does not simulate individual lines; it tracks a *pressure*
    ratio — the offered working set divided by the capacity — and maps
    it to a miss rate with a saturating curve:

    ``miss_rate = base + (max_rate - base) * p / (p + knee)``

    where ``p = max(0, working_set / capacity - 1)``.  While the working
    set fits, misses stay near ``base`` (compulsory misses); once it
    exceeds capacity, the miss rate climbs toward ``max_rate``.  This is
    the mechanism behind both the app tier's L2 thrashing under
    ordering-mix overload and the DB tier's buffer-pool churn under
    browsing-mix overload.
    """

    capacity: float = 512.0  # KB for an L2 cache, MB for a buffer pool
    base_miss_rate: float = 0.02
    max_miss_rate: float = 0.45
    knee: float = 0.5

    def __post_init__(self) -> None:
        if not self.capacity > 0:
            raise ValueError("cache capacity must be positive")
        if not self.knee > 0:
            raise ValueError("cache knee must be positive")
        if not 0.0 <= self.base_miss_rate <= self.max_miss_rate <= 1.0:
            raise ValueError(
                "miss rates must satisfy 0 <= base_miss_rate <= "
                "max_miss_rate <= 1"
            )

    def pressure_and_miss(self, working_set: float) -> Tuple[float, float]:
        """Pressure and miss rate for a given offered working set.

        The one owner of the cache formula: every tier calls it once per
        state change, so ``max(0.0, p)`` is spelt as a compare, which is
        the same value (NaN included) without a builtin call.
        """
        p = working_set / self.capacity - 1.0
        if not p > 0.0:
            p = 0.0
        span = self.max_miss_rate - self.base_miss_rate
        return p, self.base_miss_rate + span * p / (p + self.knee)

    def pressure(self, working_set: float) -> float:
        """Excess of working set over capacity, as a ratio (>= 0)."""
        return self.pressure_and_miss(working_set)[0]

    def miss_rate(self, working_set: float) -> float:
        """Miss rate for a given offered working set."""
        return self.pressure_and_miss(working_set)[1]


@dataclass
class QueueStats:
    """Aggregate queue statistics accumulated between snapshots."""

    arrived: int = 0
    admitted: int = 0
    dropped: int = 0
    completed: int = 0
    busy_work: float = 0.0  # useful work completed (nominal CPU-seconds)
    busy_time: float = 0.0  # wall time with >= 1 request in service
    weighted_active: float = 0.0  # integral of n_active dt
    weighted_queue: float = 0.0  # integral of queue length dt
    total_queue_wait: float = 0.0
    total_service_time: float = 0.0

    def reset(self) -> None:
        self.arrived = 0
        self.admitted = 0
        self.dropped = 0
        self.completed = 0
        self.busy_work = 0.0
        self.busy_time = 0.0
        self.weighted_active = 0.0
        self.weighted_queue = 0.0
        self.total_queue_wait = 0.0
        self.total_service_time = 0.0


class WorkerPool:
    """Bounded pool of workers with a FIFO backlog.

    ``acquire`` either grants a worker immediately or enqueues the
    caller; ``release`` hands the freed worker to the head of the
    backlog.  The pool tracks time-weighted occupancy so tier servers
    can report utilization and queue lengths per sampling interval.
    """

    def __init__(self, size: int, queue_capacity: Optional[int] = None):
        if size <= 0:
            raise ValueError("worker pool size must be positive")
        if queue_capacity is not None and queue_capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        self.size = size
        self.queue_capacity = queue_capacity
        self.in_use = 0
        self._backlog: Deque[object] = deque()
        self._last_update = 0.0
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._backlog)

    @property
    def available(self) -> int:
        return self.size - self.in_use

    def _advance(self, now: float) -> None:
        """Accumulate time-weighted occupancy up to ``now``."""
        dt = now - self._last_update
        if dt > 0:
            self.stats.weighted_active += self.in_use * dt
            self.stats.weighted_queue += len(self._backlog) * dt
            if self.in_use > 0:
                self.stats.busy_time += dt
            self._last_update = now

    # ------------------------------------------------------------------
    def try_acquire(self, now: float, token: object) -> str:
        """Request a worker at time ``now``.

        Returns ``"granted"`` when a worker was free, ``"queued"`` when
        the caller was placed in the backlog, ``"dropped"`` when the
        backlog is full.
        """
        self._advance(now)
        self.stats.arrived += 1
        if self.in_use < self.size:
            self.in_use += 1
            self.stats.admitted += 1
            return "granted"
        if (
            self.queue_capacity is not None
            and len(self._backlog) >= self.queue_capacity
        ):
            self.stats.dropped += 1
            return "dropped"
        self._backlog.append(token)
        return "queued"

    def release(self, now: float) -> Optional[object]:
        """Free one worker; return the backlog head now granted, if any."""
        if self.in_use <= 0:
            raise RuntimeError("release without matching acquire")
        self._advance(now)
        if self._backlog:
            token = self._backlog.popleft()
            self.stats.admitted += 1
            # the worker passes directly to the queued request
            return token
        self.in_use -= 1
        return None

    def snapshot(self, now: float) -> QueueStats:
        """Return accumulated stats up to ``now`` and reset the window."""
        self._advance(now)
        snap = QueueStats(**vars(self.stats))
        self.stats.reset()
        return snap
