"""Which program entry points are the layers, and the per-layer metrics.

Spans are recorded from the benchmark's side: each entry point below is
wrapped at class level before the workload builds its objects, so the
program itself carries no instrumentation for this benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spans import EntryPoint, SpanRecorder

#: per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: Dict[str, str] = {
    "simulator.events": "count",
    "simulator.self_s": "s",
    "simulator.events_per_s": "1/s",
    "gate.admit_calls": "count",
    "gate.admit_self_s": "s",
    "sampler.ticks": "count",
    "sampler.self_s": "s",
    "fold.records": "count",
    "fold.self_s": "s",
    "synopsis.calls": "count",
    "synopsis.rows": "count",
    "synopsis.self_s": "s",
    "decide.clean_windows": "count",
    "decide.clean_self_s": "s",
    "decide.quorum_windows": "count",
    "decide.quorum_self_s": "s",
    "decide.clean_share": "share",
    "gate.update_self_s": "s",
    "publish.snapshots": "count",
    "publish.self_s": "s",
    "service.ticks": "count",
    "service.self_s": "s",
    "gateway.admits": "count",
    "gateway.self_s": "s",
    "http.requests": "count",
    "http.queue_full": "count",
    "http.deadline_exceeded": "count",
    "backend.tick_busy_share": "share",
    "backend.live_share": "share",
    "loadgen.lateness_ms_p50": "ms",
    "loadgen.lateness_ms_p99": "ms",
    "trace.overhead_share": "share",
    "trace.accounted_share": "share",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "admit_p99_ms": "ms",
    "admit_ok_share": "share",
    "admit_max_rps": "1/s",
    "failed_share": "share",
}


def entry_points() -> List[EntryPoint]:
    """(class, attribute, span name, size fn) for every wrapped layer."""
    from repro.control.admission import AimdGate
    from repro.control.fleet import FleetState
    from repro.control.service import CapacityService, SiteRuntime
    from repro.control.snapshot import SnapshotPublisher
    from repro.core.monitor import OnlineCapacityMonitor
    from repro.core.synopsis import PerformanceSynopsis
    from repro.simulator.engine import Simulator
    from repro.telemetry.sampler import TelemetrySampler

    return [
        (Simulator, "run", "simulator", None),
        (TelemetrySampler, "_tick", "sampler", None),
        (SiteRuntime, "offer", "fold", None),
        (AimdGate, "admit", "gate.admit", None),
        (PerformanceSynopsis, "predict_batch", "synopsis",
         lambda self, X: len(X)),
        (FleetState, "decide_clean", "decide.clean",
         lambda self, entries: len(entries)),
        (OnlineCapacityMonitor, "decide", "decide.quorum", None),
        (AimdGate, "update_many", "gate.update",
         lambda gates, decisions: len(gates)),
        (AimdGate, "update", "gate.update", None),
        (SnapshotPublisher, "update", "publish.update", None),
        (SnapshotPublisher, "publish", "publish", None),
        (CapacityService, "_on_tick", "service", None),
    ]


def wrap_layers(recorder: SpanRecorder, *, gateway: bool = False) -> None:
    """Wrap every layer; the HTTP gateway only where one serves."""
    recorder.wrap_all(entry_points())
    if gateway:
        from repro.frontend.gateway import AdmitGateway

        recorder.wrap(AdmitGateway, "admit", "gateway", new_ident=True)


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    *,
    events: int,
    wall_s: float,
    root_s: float,
    spans: int,
    overhead_share: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Fold span totals into the per-layer metric set.

    ``root_s`` is the summed duration of root spans on the threads the
    workload accounts for; ``wall_s`` the traced wall time they should
    explain.  Metrics a workload has no layer for read 0.
    """
    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    sim_self = get("simulator", "self_s")
    clean = get("decide.clean", "size")
    quorum = get("decide.quorum", "calls")
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update({
        "simulator.events": float(events),
        "simulator.self_s": sim_self,
        "simulator.events_per_s": events / sim_self if sim_self else 0.0,
        "gate.admit_calls": get("gate.admit", "calls"),
        "gate.admit_self_s": get("gate.admit", "self_s"),
        "sampler.ticks": get("sampler", "calls"),
        "sampler.self_s": get("sampler", "self_s"),
        "fold.records": get("fold", "calls"),
        "fold.self_s": get("fold", "self_s"),
        "synopsis.calls": get("synopsis", "calls"),
        "synopsis.rows": get("synopsis", "size"),
        "synopsis.self_s": get("synopsis", "self_s"),
        "decide.clean_windows": clean,
        "decide.clean_self_s": get("decide.clean", "self_s"),
        "decide.quorum_windows": quorum,
        "decide.quorum_self_s": get("decide.quorum", "self_s"),
        "decide.clean_share": (
            clean / (clean + quorum) if clean + quorum else 0.0
        ),
        "gate.update_self_s": get("gate.update", "self_s"),
        "publish.snapshots": get("publish", "calls"),
        "publish.self_s": (
            get("publish", "self_s") + get("publish.update", "self_s")
        ),
        "service.ticks": get("service", "calls"),
        "service.self_s": get("service", "self_s"),
        "gateway.admits": get("gateway", "calls"),
        "gateway.self_s": get("gateway", "self_s"),
        "trace.overhead_share": overhead_share,
        "trace.accounted_share": root_s / wall_s if wall_s else 0.0,
        "trace.wall_s": wall_s,
        "trace.spans": float(spans),
    })
    values.update(extra or {})
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"metrics without a unit: {sorted(unknown)}")
    return values


def accounting_lines(
    totals: Dict[str, Dict[str, float]], wall_s: float
) -> List[str]:
    """Operational-law table: each layer's self time and wall share."""
    rows = [f"# {'layer':<16} {'calls':>10} {'self_s':>10} {'share':>8}"]
    summed = 0.0
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        summed += t["self_s"]
        rows.append(
            f"# {name:<16} {t['calls']:>10.0f} {t['self_s']:>10.4f} "
            f"{t['self_s'] / wall_s if wall_s else 0.0:>8.2%}"
        )
    rows.append(
        f"# {'sum of layers':<16} {'':>10} {summed:>10.4f} "
        f"{summed / wall_s if wall_s else 0.0:>8.2%} of {wall_s:.3f}s traced wall"
    )
    return rows
