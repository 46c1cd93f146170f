"""Generic tier server model.

A :class:`TierServer` models one tier of the website (the Tomcat
application server or the MySQL database server in the paper's testbed)
as a bounded worker pool in front of a contended multi-core CPU:

* a request first acquires a **worker** (a Tomcat thread / MySQL
  connection); if none is free it waits in a FIFO backlog;
* holding the worker, the request executes one or more **CPU phases**;
  between phases it may be **blocked** on a downstream tier (the thread
  is held but not runnable — exactly how a synchronous servlet waits on
  JDBC);
* all runnable phases share the CPU by **exact processor sharing**:
  each progresses at a common rate set by core count, scheduling
  overhead (:class:`~repro.simulator.resources.ContentionModel`) and
  cache-miss stalls (:class:`~repro.simulator.resources.CacheModel`).

Processor sharing is simulated exactly in O(log n) per event with
virtual time: because every runnable phase progresses at the same rate
``r(state)``, a phase admitted at virtual progress ``V`` with demand
``d`` completes when ``V`` reaches ``V + d``.  The server advances
``V`` piecewise-linearly between state changes and keeps a heap of
phase completion marks; whenever concurrency, working set or background
load changes the rate, the next completion is simply rescheduled.  This
avoids the metastable artifacts of quasi-static approximations (a
transient arrival burst must drain at full speed once concurrency
falls, not persist at its admission-time slowdown).  A pending
completion that a fresh push would not move — same time, and still the
simulator's most recent push — is kept rather than rescheduled.

Every physical quantity the telemetry layer needs — utilization,
runnable and blocked thread counts, queue length, work completed, cache
pressure — is accumulated as a time-weighted integral and drained by
:meth:`TierServer.sample`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from .engine import Event, Simulator
from .resources import CacheModel, ContentionModel, WorkerPool

__all__ = ["HardwareSpec", "Job", "TierSample", "TierServer", "Session"]

#: per-event records are slotted where dataclasses support it (3.10+)
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True)
class HardwareSpec:
    """Static description of a tier's machine.

    ``speed_factor`` expresses per-core throughput relative to the
    reference machine on which job demands are calibrated (the paper's
    2.0 GHz Pentium 4 app server).  ``instructions_per_work`` converts
    one nominal CPU-second of useful work into retired instructions for
    the synthetic hardware counters.
    """

    name: str
    cores: int = 1
    frequency_ghz: float = 2.0
    speed_factor: float = 1.0
    l2_cache_kb: float = 512.0
    memory_mb: float = 512.0
    instructions_per_work: float = 1.6e9

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")


@dataclass
class Job:
    """One unit of tier work: a servlet execution or a database query.

    ``demand`` is nominal CPU seconds on the reference machine.
    ``footprint_kb`` is the hot working set the job keeps in the tier's
    cache (L2 for the app tier, buffer pool for the DB tier).
    """

    demand: float
    footprint_kb: float = 32.0
    kind: str = "generic"

    def __post_init__(self) -> None:
        # a NaN demand passes `demand < 0`, never reaches its completion
        # mark and would stall the simulator at one instant for ever
        if not self.demand >= 0 or not math.isfinite(self.demand):
            raise ValueError("job demand must be finite and non-negative")
        if not self.footprint_kb >= 0 or not math.isfinite(self.footprint_kb):
            raise ValueError("job footprint must be finite and non-negative")


@dataclass
class TierSample:
    """Physical statistics for one sampling interval of one tier."""

    tier: str
    t_start: float
    t_end: float
    arrived: int = 0
    admitted: int = 0
    dropped: int = 0
    completed: int = 0
    work_done: float = 0.0  # nominal CPU-seconds of useful work completed
    background_work: float = 0.0  # CPU-seconds burned by monitoring daemons
    core_busy_time: float = 0.0  # integral of busy cores dt
    runnable_avg: float = 0.0
    blocked_avg: float = 0.0
    threads_avg: float = 0.0
    queue_avg: float = 0.0
    queue_wait_sum: float = 0.0
    service_time_sum: float = 0.0
    residence_time_sum: float = 0.0
    miss_rate_avg: float = 0.0
    cache_pressure_avg: float = 0.0
    working_set_kb: float = 0.0  # instantaneous at sample time
    cores: int = 1
    workers: int = 1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def throughput(self) -> float:
        """Completed jobs per second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of total core capacity that was busy (0..1)."""
        if self.duration <= 0:
            return 0.0
        return self.core_busy_time / (self.duration * self.cores)

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_sum / self.admitted if self.admitted else 0.0

    @property
    def mean_service_time(self) -> float:
        return self.service_time_sum / self.completed if self.completed else 0.0

    @property
    def mean_residence_time(self) -> float:
        return (
            self.residence_time_sum / self.completed if self.completed else 0.0
        )


@dataclass(**_SLOTTED)
class Session:
    """A request's stay on one tier: worker held from admit to finish."""

    job: Job
    on_admitted: Callable[["Session"], None]
    arrival_time: float = 0.0
    admit_time: float = 0.0
    runnable: bool = False
    service_time: float = 0.0
    _finished: bool = False


@dataclass(**_SLOTTED)
class _Phase:
    """A runnable CPU burst inside the processor-sharing core."""

    demand: float
    session: Optional[Session]  # None for background work
    footprint_kb: float
    on_done: Optional[Callable]
    start_wall: float


class TierServer:
    """One tier of the multi-tier website.  See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        spec: HardwareSpec,
        *,
        workers: int,
        queue_capacity: Optional[int] = None,
        contention: Optional[ContentionModel] = None,
        cache: Optional[CacheModel] = None,
        miss_stall_factor: float = 2.0,
        queue_in_working_set: float = 1.0,
        blocked_in_working_set: float = 1.0,
    ):
        """Create a tier.

        Parameters
        ----------
        workers:
            Pool size (Tomcat maxThreads / MySQL max_connections).
        queue_capacity:
            Backlog bound; None means unbounded (Tomcat acceptCount is
            large in the paper's default configuration).
        miss_stall_factor:
            How strongly cache misses inflate service time; memory-bound
            tiers (the DB) use larger values.
        queue_in_working_set:
            Weight of *queued* jobs' footprints in the cache working
            set.  For a database buffer pool the data of soon-to-run
            queries churns the pool (weight 1); for a processor L2 only
            running threads matter (weight 0).
        blocked_in_working_set:
            Weight of *blocked* sessions' footprints.  A servlet thread
            waiting on JDBC is off-CPU, so its data ages out of the L2
            (weight 0); a query's pages stay pinned in the buffer pool
            for its whole stay (weight 1).
        """
        self.sim = sim
        self.spec = spec
        self.pool = WorkerPool(workers, queue_capacity)
        self.contention = contention or ContentionModel(cores=spec.cores)
        if self.contention.cores != spec.cores:
            raise ValueError("contention model core count must match spec")
        self.cache = cache or CacheModel(capacity=spec.l2_cache_kb)
        self.miss_stall_factor = miss_stall_factor
        self.queue_in_working_set = queue_in_working_set
        self.blocked_in_working_set = blocked_in_working_set

        # live thread-state counters
        self._runnable = 0  # foreground phases in the PS core
        self._bg_active = 0  # background phases in the PS core
        self._blocked = 0
        self._ws_runnable_kb = 0.0
        self._ws_blocked_kb = 0.0
        self._ws_queued_kb = 0.0

        self._cores = spec.cores  # read by _advance on every event
        # speed_factor * per_request_rate(n), indexed by runnable count n
        # and filled on demand (index 0 is never read); valid because the
        # spec and the contention model are frozen
        self._raw_rates: List[float] = [0.0]

        # processor-sharing core
        self._virtual = 0.0  # common progress of all runnable phases
        self._phase_heap: List[Tuple[float, int, _Phase]] = []
        self._phase_seq = itertools.count()
        self._completion_event: Optional[Event] = None
        # cache pressure, miss rate and d(virtual)/dt of the current
        # state, recomputed by _resync on every change
        self._resync()

        # time-weighted accumulators
        self._last_advance = sim.now
        self._int_core_busy = 0.0
        self._int_runnable = 0.0
        self._int_blocked = 0.0
        self._int_threads = 0.0
        self._int_queue = 0.0
        self._int_miss_rate = 0.0
        self._int_pressure = 0.0

        # counters
        self._completed = 0
        self._work_done = 0.0
        self._background_work = 0.0
        self._queue_wait_sum = 0.0
        self._service_time_sum = 0.0
        self._residence_time_sum = 0.0
        self._sample_start = sim.now

    # ------------------------------------------------------------------
    # live state inspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def runnable(self) -> int:
        """Threads currently executing a CPU phase (incl. background)."""
        return self._runnable + self._bg_active

    @property
    def blocked(self) -> int:
        """Threads held but waiting on a downstream tier."""
        return self._blocked

    @property
    def threads_in_use(self) -> int:
        return self.pool.in_use

    @property
    def queue_length(self) -> int:
        return self.pool.queue_length

    def working_set_kb(self) -> float:
        """Current cache working set offered by active and queued jobs."""
        return (
            self._ws_runnable_kb
            + self.blocked_in_working_set * self._ws_blocked_kb
            + self.queue_in_working_set * self._ws_queued_kb
        )

    # ------------------------------------------------------------------
    # accounting + processor-sharing core: every state change runs
    # _advance() before it and _resync() after it
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Integrate state up to now using the rates in force since then."""
        now = self.sim._now
        dt = now - self._last_advance
        if dt <= 0:
            return
        n = self._runnable + self._bg_active
        cores = self._cores
        self._int_core_busy += (n if n < cores else cores) * dt
        self._int_runnable += n * dt
        self._int_blocked += self._blocked * dt
        self._int_threads += self.pool.in_use * dt
        self._int_queue += self.pool.queue_length * dt
        self._int_miss_rate += self._miss * dt
        self._int_pressure += self._pressure * dt
        if n > 0 and self._rate > 0:
            progress = self._rate * dt
            self._virtual += progress
            self._work_done += progress * self._runnable
            self._background_work += progress * self._bg_active
        self._last_advance = now

    def _resync(self) -> None:
        """Recompute the state's rates and reschedule the next completion."""
        p, miss = self.cache.pressure_and_miss(self.working_set_kb())
        self._pressure = p
        self._miss = miss
        n = self._runnable + self._bg_active
        if n:
            raw_rates = self._raw_rates
            while len(raw_rates) <= n:
                raw_rates.append(
                    self.spec.speed_factor
                    * self.contention.per_request_rate(len(raw_rates))
                )
            rate = raw_rates[n] / (1.0 + miss * self.miss_stall_factor)
        else:
            rate = 0.0
        self._rate = rate

        event = self._completion_event
        if not self._phase_heap:
            if event is not None:
                event.cancel()
                self._completion_event = None
            return
        if rate <= 0:
            raise RuntimeError("active phases with zero progress rate")
        sim = self.sim
        delay = (self._phase_heap[0][0] - self._virtual) / rate
        time = sim._now + (delay if delay > 0.0 else 0.0)
        if event is not None:
            # a fresh push would take the next sequence number with no
            # event in between: same heap order, so keep the pending one
            if event is sim.last_scheduled and event.time == time:
                return
            event.cancel()
        self._completion_event = sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        """Complete every phase whose virtual mark has been reached."""
        self._completion_event = None
        self._advance()
        now = self.sim._now
        heap = self._phase_heap
        reached = self._virtual + 1e-9
        finished: List[_Phase] = []
        while heap and heap[0][0] <= reached:
            phase = heappop(heap)[2]
            finished.append(phase)
            session = phase.session
            if session is not None:
                self._runnable -= 1
                self._blocked += 1
                self._ws_runnable_kb -= phase.footprint_kb
                self._ws_blocked_kb += phase.footprint_kb
                session.runnable = False
                session.service_time += now - phase.start_wall
            else:
                self._bg_active -= 1
                self._ws_runnable_kb -= phase.footprint_kb
        self._resync()
        for phase in finished:
            if phase.on_done is not None:
                if phase.session is not None:
                    phase.on_done(phase.session)
                else:
                    phase.on_done()

    def _enter_phase(self, phase: _Phase) -> None:
        mark = self._virtual + phase.demand
        heappush(self._phase_heap, (mark, next(self._phase_seq), phase))

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def submit(
        self, job: Job, on_admitted: Callable[[Session], None]
    ) -> Optional[Session]:
        """Ask for a worker.

        ``on_admitted`` fires (possibly synchronously) once the session
        holds a worker; the caller then drives CPU phases with
        :meth:`run_phase` and ends with :meth:`finish`.  Returns None
        when the backlog is full and the job was dropped.
        """
        self._advance()
        now = self.sim._now
        session = Session(job, on_admitted, arrival_time=now)
        outcome = self.pool.try_acquire(now, session)
        if outcome == "dropped":
            self._resync()
            return None
        if outcome == "queued":
            self._ws_queued_kb += job.footprint_kb
            self._resync()
            return session
        self._admit(session)
        self._resync()
        return session

    def _admit(self, session: Session) -> None:
        session.admit_time = self.sim._now
        self._queue_wait_sum += session.admit_time - session.arrival_time
        self._ws_blocked_kb += session.job.footprint_kb
        self._blocked += 1  # holds a worker, not yet running a phase
        session.on_admitted(session)

    def run_phase(
        self,
        session: Session,
        demand: float,
        on_done: Callable[[Session], None],
    ) -> float:
        """Execute ``demand`` nominal CPU-seconds; fire ``on_done`` after.

        Returns the phase duration *estimate* under the instantaneous
        rate; the actual duration depends on how concurrency evolves.
        """
        if not 0.0 <= demand < math.inf:
            raise ValueError(
                f"phase demand must be finite and non-negative, got {demand!r}"
            )
        if session.runnable:
            raise RuntimeError("session already running a phase")
        if session._finished:
            raise RuntimeError("session already finished")
        self._advance()
        footprint_kb = session.job.footprint_kb
        self._blocked -= 1
        self._runnable += 1
        self._ws_blocked_kb -= footprint_kb
        self._ws_runnable_kb += footprint_kb
        session.runnable = True
        self._enter_phase(
            _Phase(demand, session, footprint_kb, on_done, self.sim._now)
        )
        self._resync()
        return demand / self._rate if self._rate > 0 else 0.0

    def run_background(
        self,
        demand: float,
        *,
        footprint_kb: float = 0.0,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Burn CPU outside the worker pool (monitoring daemons etc.).

        Background work competes with request phases for cores and
        pollutes the cache like any runnable thread, which is exactly
        how a metrics collector perturbs the measured system.  Returns
        the estimated duration of the burst.
        """
        if not 0.0 <= demand < math.inf:
            raise ValueError(
                "background demand must be finite and non-negative, "
                f"got {demand!r}"
            )
        if not 0.0 <= footprint_kb < math.inf:
            raise ValueError(
                "background footprint must be finite and non-negative, "
                f"got {footprint_kb!r}"
            )
        self._advance()
        self._bg_active += 1
        self._ws_runnable_kb += footprint_kb
        self._enter_phase(
            _Phase(demand, None, footprint_kb, on_done, self.sim._now)
        )
        self._resync()
        return demand / self._rate if self._rate > 0 else 0.0

    def finish(self, session: Session) -> None:
        """Release the worker and hand it to the backlog head, if any."""
        if session.runnable:
            raise RuntimeError("cannot finish a session mid-phase")
        if session._finished:
            raise RuntimeError("session finished twice")
        self._advance()
        session._finished = True
        self._blocked -= 1
        self._ws_blocked_kb -= session.job.footprint_kb
        self._completed += 1
        self._service_time_sum += session.service_time
        now = self.sim._now
        self._residence_time_sum += now - session.arrival_time
        granted = self.pool.release(now)
        if granted is not None:
            next_session = granted
            assert isinstance(next_session, Session)
            self._ws_queued_kb -= next_session.job.footprint_kb
            self._admit(next_session)
        self._resync()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> TierSample:
        """Drain the accounting window into a :class:`TierSample`."""
        self._advance()
        now = self.sim.now
        duration = now - self._sample_start
        pool_stats = self.pool.snapshot(now)
        sample = TierSample(
            tier=self.name,
            t_start=self._sample_start,
            t_end=now,
            arrived=pool_stats.arrived,
            admitted=pool_stats.admitted,
            dropped=pool_stats.dropped,
            completed=self._completed,
            work_done=self._work_done,
            background_work=self._background_work,
            core_busy_time=self._int_core_busy,
            runnable_avg=self._int_runnable / duration if duration else 0.0,
            blocked_avg=self._int_blocked / duration if duration else 0.0,
            threads_avg=self._int_threads / duration if duration else 0.0,
            queue_avg=self._int_queue / duration if duration else 0.0,
            queue_wait_sum=self._queue_wait_sum,
            service_time_sum=self._service_time_sum,
            residence_time_sum=self._residence_time_sum,
            miss_rate_avg=self._int_miss_rate / duration if duration else 0.0,
            cache_pressure_avg=(
                self._int_pressure / duration if duration else 0.0
            ),
            working_set_kb=self.working_set_kb(),
            cores=self.spec.cores,
            workers=self.pool.size,
        )
        self._sample_start = now
        self._completed = 0
        self._work_done = 0.0
        self._background_work = 0.0
        self._queue_wait_sum = 0.0
        self._service_time_sum = 0.0
        self._residence_time_sum = 0.0
        self._int_core_busy = 0.0
        self._int_runnable = 0.0
        self._int_blocked = 0.0
        self._int_threads = 0.0
        self._int_queue = 0.0
        self._int_miss_rate = 0.0
        self._int_pressure = 0.0
        return sample
