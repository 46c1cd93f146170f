"""``live-stress``: the simulated live path of ``repro serve``.

Equivalent to ``repro serve --sites 8 --profile stress --mix shopping
--scale 0.2 --meter <prepared>``: one simulator hosts every site's
website and traffic, per-site samplers stream into the service, and the
service's tick callback decides and gates.  The benchmark advances the
simulator one sampling interval at a time so each full fleet tick is
timed; a finished schedule starts a fresh round with the next seeds.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import stats
from .common import RunResult, timed_setups
from .layers import layer_metrics, wrap_layers
from .spans import SpanRecorder
from .speed import SpeedProbe

SITES = 8
MIX = "shopping"
SCALE = 0.2
#: decision accuracy is scored on each site's first windows of the
#: first round, a fixed set: every run goes on at least that far
SCORED_WINDOWS = 20


def site_seed_base(seed: int, round_index: int) -> int:
    """Per-run, per-round site seeds (site i gets base + i)."""
    return 1000 + 64 * seed + SITES * round_index


def build_live(meter, labeler, *, seed_base: int, on_decision):
    """The ``repro serve`` single-process stack, built as it builds it."""
    from repro.cli import _resolve_mix
    from repro.control.service import CapacityService, SiteSpec
    from repro.experiments.testbed import TestbedConfig, stress_schedule
    from repro.simulator import (
        AppServer, DatabaseServer, MultiTierWebsite, Simulator,
    )
    from repro.workload.generator import ScheduleDriver
    from repro.workload.rbe import RemoteBrowserEmulator

    mix = _resolve_mix(MIX)
    config = TestbedConfig()
    schedule = stress_schedule(mix, config, scale=SCALE)
    specs = [SiteSpec(name=f"site{i}", seed=seed_base + i)
             for i in range(SITES)]
    service = CapacityService(meter, specs, labeler=labeler,
                              on_decision=on_decision)
    sim = Simulator()
    websites = {}
    for spec in specs:
        app = AppServer(sim, workers=config.app_workers)
        db = DatabaseServer(sim, connections=config.db_connections)
        website = MultiTierWebsite(sim, app, db)
        websites[spec.name] = website
        rbe = RemoteBrowserEmulator(
            sim, service.front_end(sim, spec.name, website), mix,
            think_time_mean=config.think_time_mean,
            continuity=config.continuity, seed=spec.seed,
        )
        ScheduleDriver(sim, rbe, schedule)
    service.attach(sim, websites, interval=config.sampling_interval,
                   hpc_noise=config.hpc_noise, os_noise=config.os_noise)
    return service, sim, schedule, config.sampling_interval


@dataclass
class _Round:
    service: object
    sim: object
    total_ticks: int
    interval: float
    decided: Dict[str, List[Optional[bool]]]


@dataclass
class _Tally:
    wall_s: float = 0.0
    windows: int = 0
    expected: int = 0
    events: int = 0
    tick_ms: List[float] = field(default_factory=list)
    #: decided windows per wall second of each decision window (chunk)
    window_rates: List[float] = field(default_factory=list)
    scored: List[bool] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


class _Runner:
    """Steps one full fleet tick at a time through consecutive rounds."""

    def __init__(self, workload: "LiveStress", first: _Round) -> None:
        self.workload = workload
        self.round = first
        self.round_index = 0
        self.k = 0
        self.tally = _Tally()
        self.probe = SpeedProbe()
        self._chunk = (0, 0.0)  # (windows, wall) at the last window close

    def step(self) -> None:
        if self.k >= self.round.total_ticks:
            self.finish()
            self.round = self.workload.setup(self.round_index)  # untimed
            self.k = 0
            self._chunk = (0, self.tally.wall_s)
        self.k += 1
        t0 = time.perf_counter()
        self.round.sim.run(until=self.k * self.round.interval)
        tick = time.perf_counter() - t0
        self.tally.wall_s += tick
        self.tally.tick_ms.append(tick * 1e3)
        self.probe.maybe(self.tally.wall_s)
        if self.window_closed:
            decided = sum(len(v) for v in self.round.decided.values())
            windows, wall = self._chunk
            self.tally.window_rates.append(
                (decided - windows) / (self.tally.wall_s - wall))
            self._chunk = (decided, self.tally.wall_s)

    @property
    def window_closed(self) -> bool:
        return self.k % self.round.service.window == 0

    @property
    def scored_reached(self) -> bool:
        """Has every site decided all of its scored windows?"""
        return (self.round_index > 0
                or self.k >= SCORED_WINDOWS * self.round.service.window)

    def finish(self) -> None:
        """Stop the round and check every site's window count."""
        rnd, out = self.round, self.tally
        rnd.service.stop()
        expected = self.k // rnd.service.window
        out.events += rnd.sim.events_executed
        for site in rnd.service.sites:
            got = rnd.decided.get(site.name, [])
            out.expected += expected
            out.windows += len(got)
            if len(got) != expected:
                out.problems.append(
                    f"{site.name}: decided {len(got)} windows, "
                    f"expected {expected} after {self.k} ticks"
                )
            if self.round_index == 0:
                out.scored.extend(f for f in got if f is not None)
        self.round_index += 1


class LiveStress:
    name = "live-stress"

    def __init__(self, prepared, seed: int) -> None:
        self.prepared = prepared
        self.seed = seed

    def setup(self, round_index: int = 0) -> _Round:
        from repro.core.capacity import CapacityMeter
        from repro.core.labeler import SlaOracle

        labeler = SlaOracle()
        meter = CapacityMeter.load(self.prepared.meter, labeler=labeler)
        decided: Dict[str, List[Optional[bool]]] = {}

        def record(name, decision) -> None:
            decided.setdefault(name, []).append(
                decision.correct if decision.index < SCORED_WINDOWS else None
            )

        service, sim, schedule, interval = build_live(
            meter, labeler, seed_base=site_seed_base(self.seed, round_index),
            on_decision=record,
        )
        return _Round(service, sim, int(round(schedule.duration / interval)),
                      interval, decided)

    def run(self, seconds: float, trace: bool) -> RunResult:
        if not trace:
            setup_s, first = timed_setups(self.setup)
            gc.collect()
            runner = _Runner(self, first)
            # stop on a window-closing tick: decided windows over wall
            # time then carries no partial-window bias
            while True:
                runner.step()
                if (runner.window_closed and runner.tally.wall_s >= seconds
                        and runner.scored_reached):
                    break
            runner.finish()
            res = runner.tally
            result = RunResult.from_windows(
                self.name, res.expected, res.windows, res.problems,
                e2e={
                    "setup_s": setup_s,
                    "windows_per_s": stats.median(res.window_rates),
                    "latency_ms_p50": stats.percentile(res.tick_ms, 50),
                    "decision_accuracy": stats.accuracy(res.scored),
                },
                slowdown=runner.probe.slowdown(),
            )
            result.notes.append(stats.tail_note("tick latency as measured:",
                                                res.tick_ms))
            return result
        # traced run: two identical simulations step tick by tick in
        # lockstep, one with the recorder off and one with it on, so the
        # overhead is measured on the same work under the same load
        recorder = SpanRecorder()
        wrap_layers(recorder)
        try:
            recorder.active = False
            plain = _Runner(self, self.setup(0))
            traced = _Runner(self, self.setup(0))
            gc.collect()
            while True:
                recorder.active = False
                plain.step()
                recorder.active = True
                recorder.set_ident(len(traced.tally.tick_ms))
                traced.step()
                recorder.active = False
                if plain.window_closed and plain.tally.wall_s >= seconds / 2:
                    break
            plain.finish()
            traced.finish()
        finally:
            recorder.unwrap()
        res = traced.tally
        totals = recorder.layer_totals()
        root_s = recorder.root_seconds()
        return RunResult.traced(
            self.name, recorder, totals,
            expected=res.expected, decided=res.windows,
            problems=plain.tally.problems + res.problems,
            per_layer=layer_metrics(
                totals,
                events=res.events,
                wall_s=res.wall_s,
                root_s=root_s,
                spans=len(recorder.table()["name"]),
                overhead_share=1.0 - plain.tally.wall_s / res.wall_s,
                extra={
                    "backend.tick_busy_share": root_s / res.wall_s,
                    "backend.live_share": 1.0,
                    "tick_ms_p50": stats.percentile(res.tick_ms, 50),
                    "tick_ms_p99": stats.percentile(res.tick_ms, 99),
                },
            ),
            wall_s=res.wall_s,
        )
