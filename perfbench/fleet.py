"""``fleet-distinct``: 256 sites, each fed its own recorded stream.

The meter path a real counter feed runs, minus the simulator: ticks are
delivered the way ``CapacityService.attach()`` delivers them —
``service.fleet.dissolve()`` once, then every tick each site's record
through ``SiteRuntime.offer`` and the service's tick callback
(``CapacityService._on_tick``, the callable ``attach()`` registers).

Every site reads one of the prepared recordings (seeds never used to
train the meter) at its own phase, and one site in eight runs under a
seeded ``FaultPlan`` (dropout, stall, duplicate_record).  All of it is
drawn from the run's seed; the program only sees the records.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import stats
from .common import RunResult, timed_setups
from .layers import layer_metrics, wrap_layers
from .prepare import STREAM_TICKS
from .spans import SpanRecorder
from .speed import SpeedProbe

SITES = 256
#: one site in FAULT_EVERY runs under a fault plan, at this offset
FAULT_EVERY = 8
FAULT_OFFSET = 3
#: sites re-decided on the per-site reference path every run
CHECK_SITES = tuple(i for i in range(SITES) if i % 16 in (0, FAULT_OFFSET))
#: decision accuracy is scored on each site's first windows only
SCORED_WINDOWS = 40
#: peak memory is read once this many ticks are done, and every run
#: takes at least that many: the service's memory grows with the ticks
#: it has taken, so read at the end it would charge a faster program
#: for the extra ticks it fits into the run
RSS_TICKS = 400


def load_streams(paths: Sequence) -> List[list]:
    """The prepared recordings, each cut to STREAM_TICKS records."""
    from repro.telemetry.persistence import load_run

    streams = []
    for path in paths:
        records = load_run(path).records
        if len(records) < STREAM_TICKS:
            raise ValueError(f"{path}: {len(records)} < {STREAM_TICKS} ticks")
        streams.append(records[:STREAM_TICKS])
    return streams


@dataclass(frozen=True)
class FleetInputs:
    """Everything the run's seed decides: who reads what, and faults."""

    stream_of: Tuple[int, ...]
    phase_of: Tuple[int, ...]
    specs: tuple  # SiteSpec per site

    def record(self, streams, site: int, tick: int):
        stream = streams[self.stream_of[site]]
        return stream[(self.phase_of[site] + tick) % len(stream)]


def make_inputs(seed: int, n_streams: int, ticks: int = STREAM_TICKS,
                sites: int = SITES) -> FleetInputs:
    """Seeded stream assignment, phases and fault plans.

    Streams are dealt out evenly and the sites sharing a stream get
    distinct phases, so no two sites ever read the same record at the
    same tick.
    """
    from repro.control.service import SiteSpec
    from repro.faults.plan import FaultPlan, FaultSpec

    rng = np.random.default_rng([seed, 0xF1EE7])
    stream_of = rng.permutation(np.arange(sites) % n_streams)
    phase_of = np.zeros(sites, dtype=np.int64)
    for s in range(n_streams):
        members = np.flatnonzero(stream_of == s)
        phase_of[members] = rng.choice(ticks, size=members.size,
                                       replace=False)
    specs = []
    for i in range(sites):
        plan = None
        if i % FAULT_EVERY == FAULT_OFFSET:
            start = rng.integers(0, 600, size=3)
            plan = FaultPlan(
                seed=int(rng.integers(2**31)),
                faults=(
                    FaultSpec(kind="dropout", start=int(start[0]),
                              end=int(start[0] + rng.integers(20, 120)),
                              probability=float(rng.uniform(0.05, 0.25))),
                    FaultSpec(kind="stall",
                              tier=("app", "db")[int(rng.integers(2))],
                              start=int(start[1]),
                              end=int(start[1] + rng.integers(1, 4))),
                    FaultSpec(kind="duplicate_record", start=int(start[2]),
                              end=int(start[2] + rng.integers(1, 3))),
                ),
            )
        specs.append(SiteSpec(name=f"site{i:03d}", seed=7000 + 512 * seed + i,
                              plan=plan))
    return FleetInputs(tuple(int(s) for s in stream_of),
                       tuple(int(p) for p in phase_of), tuple(specs))


@dataclass
class _Tally:
    ticks: int = 0
    wall_s: float = 0.0
    tick_ms: List[float] = field(default_factory=list)
    #: decided windows per wall second of each window-long chunk of ticks
    window_rates: List[float] = field(default_factory=list)
    chunk: Tuple[int, float] = (0, 0.0)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    windows: int = 0
    expected: int = 0
    scored: List[bool] = field(default_factory=list)
    signatures: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class _Decisions:
    """on_decision sink: counts per site, keeps the checked sites' own."""

    def __init__(self, checked: Sequence[str]) -> None:
        self.count: Dict[str, int] = {}
        self.total = 0
        self.scored: List[bool] = []
        self.kept: Dict[str, list] = {name: [] for name in checked}

    def __call__(self, name, decision) -> None:
        self.count[name] = self.count.get(name, 0) + 1
        self.total += 1
        if decision.index < SCORED_WINDOWS:
            self.scored.append(decision.correct)
        kept = self.kept.get(name)
        if kept is not None:
            kept.append(decision)


class FleetDistinct:
    name = "fleet-distinct"

    def __init__(self, prepared, seed: int) -> None:
        self.prepared = prepared
        self.seed = seed
        # input generation, not the program's set-up: untimed
        self.streams = load_streams(prepared.streams)
        self.inputs = make_inputs(seed, len(self.streams))
        self.checked = [self.inputs.specs[i].name for i in CHECK_SITES]

    def _service(self, specs, sink, **kwargs):
        from repro.control.service import CapacityService
        from repro.core.capacity import CapacityMeter
        from repro.core.labeler import SlaOracle

        labeler = SlaOracle()
        meter = CapacityMeter.load(self.prepared.meter, labeler=labeler)
        return CapacityService(meter, specs, labeler=labeler,
                               on_decision=sink, **kwargs)

    def setup(self):
        """Load the meter and stand the 256-site service up, as attach()
        leaves it: snapshots on, cohort folding dissolved."""
        sink = _Decisions(self.checked)
        service = self._service(self.inputs.specs, sink)
        service.enable_snapshots()
        service.fleet.dissolve()
        return service, sink

    def _deliver(self, service, t: int) -> None:
        record = self.inputs.record
        streams = self.streams
        for i, site in enumerate(service.sites):
            site.offer(record(streams, i, t))
        service._on_tick()

    def _step(self, built, out: _Tally, feed=None) -> None:
        """Deliver and time one full fleet tick (inside ``feed``, a span
        context, when traced)."""
        t0 = time.perf_counter()
        with feed or contextlib.nullcontext():
            self._deliver(built[0], out.ticks)
        tick = time.perf_counter() - t0
        out.ticks += 1
        out.wall_s += tick
        out.tick_ms.append(tick * 1e3)
        out.probe.maybe(out.wall_s)
        service, sink = built
        if out.ticks % service.window == 0:
            windows, wall = out.chunk
            out.window_rates.append(
                (sink.total - windows) / (out.wall_s - wall))
            out.chunk = (sink.total, out.wall_s)

    def _finish(self, built, out: _Tally) -> None:
        """Check every site's window count; keep the checked sites'
        decision signatures for the reference comparison."""
        from repro.faults.campaign import decision_signature

        service, sink = built
        window = service.window
        for site in service.sites:
            got = sink.count.get(site.name, 0)
            folded = site.monitor.counters.ticks
            expected = folded // window
            out.expected += expected
            out.windows += got
            if got != expected:
                out.problems.append(
                    f"{site.name}: decided {got} windows, expected "
                    f"{expected} from {folded} folded records")
            if site.spec.plan is None and folded != out.ticks:
                out.problems.append(
                    f"{site.name}: folded {folded} of {out.ticks} records")
        out.scored = sink.scored
        out.signatures = {name: decision_signature(kept)
                          for name, kept in sink.kept.items()}

    def reference_check(self, result: _Tally) -> List[str]:
        """Re-decide the checked sites on the per-site reference path
        (``use_fleet=False, batch_votes=False``) over the same records;
        every decision must match bit for bit."""
        specs = [self.inputs.specs[i] for i in CHECK_SITES]
        sink = _Decisions(self.checked)
        ref = self._service(specs, sink, use_fleet=False, batch_votes=False)
        record = self.inputs.record
        streams = self.streams
        for t in range(result.ticks):
            for i, site in zip(CHECK_SITES, ref.sites):
                site.offer(record(streams, i, t))
            ref._on_tick()
        from repro.faults.campaign import decision_signature

        problems = []
        for name, kept in sink.kept.items():
            if decision_signature(kept) != result.signatures[name]:
                problems.append(
                    f"{name}: fleet decisions differ from the per-site "
                    f"reference path")
        return problems

    def run(self, seconds: float, trace: bool) -> RunResult:
        if not trace:
            setup_s, built = timed_setups(self.setup)
            gc.collect()
            res = _Tally()
            window = built[0].window
            while True:
                self._step(built, res)
                if res.ticks == RSS_TICKS:
                    peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
                if (res.ticks % window == 0 and res.wall_s >= seconds
                        and res.ticks >= RSS_TICKS):
                    break
            self._finish(built, res)
            problems = res.problems + self.reference_check(res)
            result = RunResult.from_windows(
                self.name, res.expected, res.windows, problems,
                e2e={
                    "setup_s": setup_s,
                    "windows_per_s": stats.median(res.window_rates),
                    "latency_ms_p50": stats.percentile(res.tick_ms, 50),
                    "decision_accuracy": stats.accuracy(res.scored),
                    "peak_rss_mb": peak_rss_mb,
                },
                slowdown=res.probe.slowdown(),
            )
            result.notes.append(stats.tail_note("tick latency as measured:",
                                                res.tick_ms))
            return result
        # traced run: two identical fleets take the same ticks in
        # lockstep, recorder off for one and on for the other
        recorder = SpanRecorder()
        wrap_layers(recorder)
        try:
            recorder.active = False
            plain_fleet, traced_fleet = self.setup(), self.setup()
            plain, res = _Tally(), _Tally()
            window = plain_fleet[0].window
            gc.collect()
            while True:
                recorder.active = False
                self._step(plain_fleet, plain)
                recorder.active = True
                # the benchmark's own delivery loop is a layer too: the
                # feed a real counter source would be
                recorder.set_ident(res.ticks)
                self._step(traced_fleet, res, feed=recorder.span("feed"))
                recorder.active = False
                if plain.ticks % window == 0 and plain.wall_s >= seconds / 2:
                    break
        finally:
            recorder.unwrap()
        self._finish(plain_fleet, plain)
        self._finish(traced_fleet, res)
        problems = plain.problems + res.problems + self.reference_check(res)
        if res.signatures != plain.signatures:
            problems.append("traced decisions differ from untraced ones")
        totals = recorder.layer_totals()
        root_s = recorder.root_seconds()
        return RunResult.traced(
            self.name, recorder, totals,
            expected=res.expected, decided=res.windows,
            problems=problems,
            per_layer=layer_metrics(
                totals,
                events=0,
                wall_s=res.wall_s,
                root_s=root_s,
                spans=len(recorder.table()["name"]),
                overhead_share=1.0 - plain.wall_s / res.wall_s,
                extra={
                    "backend.tick_busy_share": root_s / res.wall_s,
                    "backend.live_share": 1.0,
                    "tick_ms_p50": stats.percentile(res.tick_ms, 50),
                    "tick_ms_p99": stats.percentile(res.tick_ms, 99),
                },
            ),
            wall_s=res.wall_s,
        )
