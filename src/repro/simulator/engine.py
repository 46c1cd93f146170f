"""Discrete-event simulation engine.

The engine is a classic event-heap simulator: callbacks are scheduled at
absolute simulated times and executed in timestamp order.  Heap entries
are plain ``(time, seq, event)`` tuples; ``seq`` is a monotonically
increasing sequence number, unique per entry, so ties run in scheduling
order and the tuple comparison never reaches the event itself.

The engine is deliberately minimal — servers, workload generators and
telemetry samplers are all built as plain callbacks on top of it — but it
supports the two features a server simulation actually needs:

* **cancellation** — a scheduled event can be cancelled in O(1) (lazy
  deletion), which tier models use to reschedule completions when their
  service rate changes; and
* **recurring timers** — used by telemetry samplers and open-loop
  workload sources.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


class Event:
    """A handle to a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be
    cancelled.  A cancelled event stays in the heap but is skipped when
    popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "action", "cancelled")

    def __init__(self, time: float, action: Callable[[], None]):
        self.time = time
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the engine skips it when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class Simulator:
    """Event-heap discrete-event simulator.

    The simulator owns the virtual clock.  Time has no unit of its own;
    by convention every model in this package interprets it as seconds.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> sim.run(until=5.0)
    >>> fired
    [2.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_executed = 0
        #: the event most recently pushed by :meth:`schedule_at`; a tier
        #: whose pending completion is still this event and already at
        #: the right time can keep it instead of rescheduling, because a
        #: fresh push would take the next sequence number with nothing
        #: in between and so keep the tie order
        self.last_scheduled: Optional[Event] = None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_executed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle that may be cancelled.  Negative
        delays are rejected (the past is immutable), and so are NaN and
        infinite ones, which would corrupt the heap order.
        """
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay!r}"
            )
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulated time."""
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule at t={time!r}: times must be finite "
                f"and not before now={self._now!r}"
            )
        event = Event(time, action)
        heappush(self._heap, (time, next(self._seq), event))
        self.last_scheduled = event
        return event

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
    ) -> Event:
        """Schedule ``action`` to run every ``interval`` seconds.

        The returned handle cancels the *next* occurrence (and therefore
        the whole series).  ``start_delay`` defaults to one interval.
        """
        if interval <= 0:
            raise SimulationError("recurring interval must be positive")

        handle_box: List[Event] = []

        def tick() -> None:
            action()
            # the action may have cancelled the series via the proxy; at
            # that point handle_box[0] is this already-fired event, so
            # only the proxy flag can stop the recurrence
            if proxy.cancelled:
                return
            handle_box[0] = self.schedule(interval, tick)
            proxy.time = handle_box[0].time

        first = self.schedule(
            interval if start_delay is None else start_delay, tick
        )
        handle_box.append(first)

        class _SeriesHandle(Event):
            __slots__ = ()

            def cancel(self) -> None:  # noqa: D102 - same contract
                self.cancelled = True
                handle_box[0].cancel()

        proxy = _SeriesHandle(first.time, action)
        return proxy

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, event = heappop(heap)
            if event.cancelled:
                continue
            self._now = time
            self._events_executed += 1
            event.action()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        samplers and callers see a consistent end-of-run time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        horizon = math.inf if until is None else until
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                self._now = time
                self._events_executed += 1
                event.action()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
