"""The ``admit-live`` backend: ``repro serve-http`` under the benchmark's
instruments, run as its own process.

Runs ``repro.cli.main(["serve-http", ...])`` unchanged after wrapping,
from the outside, the entry points the workload measures:

* always: a mark after every service tick (monotonic time, the tick
  thread's CPU time, ticks so far), the tick loop's first and last
  call, and every decided window (site, index, matched the oracle);
* with ``--trace 1``: every layer span (``perfbench.layers``) plus the
  HTTP gateway, saved with the report.

The report is written as JSON when the server has drained and exited
(SIGTERM or ``--duration``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TICK_THREAD = "capacity-ticks"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the server (every thread) to this CPU")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="arguments after -- go to repro serve-http")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cpu is not None:
        # before any thread starts, so the tick thread inherits it
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import cli
    from repro.control.service import CapacityService
    from repro.frontend.server import HttpCapacityServer
    from repro.simulator.engine import Simulator

    from perfbench.layers import wrap_layers
    from perfbench.spans import SpanRecorder, span_cost
    from perfbench.speed import PROBE_EVERY_S, probe_seconds

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        wrap_layers(recorder, gateway=True)

    marks = []
    probes = []
    decisions = []
    loop = {"first": None, "done": None}
    captured = {"sims": [], "server": None, "service": None}

    inner_tick = CapacityService._on_tick

    def on_tick(self) -> None:
        inner_tick(self)
        now = time.monotonic()
        marks.append((now, time.thread_time(), self.ticks))
        if recorder is not None:
            # spans from here on belong to the next fleet tick
            recorder.set_ident(self.ticks)
        # the host-speed probe, on the thread whose work it calibrates
        if not probes or now - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((now, probe_seconds()))

    CapacityService._on_tick = on_tick

    inner_sim_init = Simulator.__init__

    def sim_init(self, *a, **kw) -> None:
        inner_sim_init(self, *a, **kw)
        captured["sims"].append(self)

    Simulator.__init__ = sim_init

    inner_server_init = HttpCapacityServer.__init__

    def server_init(self, *a, **kw) -> None:
        inner_server_init(self, *a, **kw)
        captured["server"] = self

    HttpCapacityServer.__init__ = server_init

    inner_backend = cli._serve_http_backend

    def backend(cli_args, meter, labeler, specs):
        service, tick, cleanup = inner_backend(cli_args, meter, labeler,
                                               specs)
        captured["service"] = service

        def record(name, decision) -> None:
            decisions.append((time.monotonic(), name, decision.index,
                              bool(decision.correct)))

        service.on_decision = record

        def timed_tick() -> bool:
            if loop["first"] is None:
                loop["first"] = time.monotonic()
            more = tick()
            if not more:
                loop["done"] = time.monotonic()
            return more

        return service, timed_tick, cleanup

    cli._serve_http_backend = backend

    serve_args = [a for a in args.serve_args if a != "--"]
    status = cli.main(["serve-http", *serve_args])

    service = captured["service"]
    server = captured["server"]
    report = {
        "status": status,
        "marks": marks,
        "probe": probes,
        "tick_loop": loop,
        "decisions": decisions,
        "window": service.window if service is not None else None,
        "final_ticks": service.ticks if service is not None else 0,
        "sites": [s.name for s in service.sites] if service else [],
        "events": sum(sim.events_executed for sim in captured["sims"]),
        "server_stats": asdict(server.stats) if server is not None else {},
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    if recorder is not None:
        recorder.unwrap()
        tick_tab = recorder.table(TICK_THREAD)
        report["trace"] = {
            "totals": recorder.layer_totals(),
            "tick_totals": recorder.layer_totals(TICK_THREAD),
            "tick_root_s": recorder.root_seconds(TICK_THREAD),
            "tick_wall_s": (
                float(tick_tab["end"].max() - tick_tab["start"].min())
                if len(tick_tab["start"]) else 0.0),
            "spans": int(len(recorder.table()["name"])),
            "span_cost_s": span_cost(),
            "threads": sorted({b.thread for b in recorder.threads()}),
        }
        recorder.save(Path(args.report).with_suffix(".npz"))
    tmp = Path(args.report).with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    tmp.replace(Path(args.report))
    return status


if __name__ == "__main__":
    sys.exit(main())
