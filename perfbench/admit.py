"""``admit-live``: ``repro serve-http`` driven by an open-loop load.

The backend (``perfbench.backend``) is ``repro serve-http --sites 8
--profile stress`` with the prepared meter, ticking on its own thread
with OBS on, exactly as the command runs.  This process drives it
open-loop from seeded Poisson schedules
(``repro.frontend.loadgen.build_schedule``): a short warm-up, the base
rate, then a short rate ladder, over at most ``nproc`` keep-alive
connections.  Each request is timed from its scheduled send, and the
generator records how late it sent each one.

A run is invalid, not fast, when the generator fell behind or when the
backend's tick loop went idle before the load ended: a faster simulator
must not finish its schedule early and leave the admit path unloaded.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import stats
from .common import RunResult, timed_setups
from .layers import layer_metrics
from .prepare import program_env
from .speed import NOMINAL_PROBE_S

SITES = 8
PROFILE = "stress"
#: three times ``repro serve``'s 0.2: the same load levels last 3x
#: longer, so the tick loop stays live through the whole load even if
#: the simulator gets several times faster
SCALE = 0.6
BASE_RPS = 150.0
LADDER_RPS = (400.0, 800.0, 1600.0)
#: share of --seconds the traced run spends at the base rate; the rest
#: is warm-up + ladder (an untraced run has no ladder: its end-to-end
#: metrics all come from the base rate, measured for the whole run)
BASE_SHARE = 0.5
WARMUP_S = 1.0
#: a request unanswered after this long is a failure
REQUEST_TIMEOUT_S = stats.UNANSWERED_MS / 1e3
#: a connection silent for this long is closed (its request failed)
HANG_TIMEOUT_S = 10.0
#: decision accuracy is scored on each site's first windows only (the
#: backend's decisions do not depend on the load, so the set is fixed
#: whenever the run reaches it, as it does well within the load)
SCORED_WINDOWS = 20
#: tick-thread progress is rated per chunk of the base interval
RATE_CHUNK_S = 1.0
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Phase:
    label: str
    rate: float
    start: float  # seconds after the load's t0
    duration: float


def load_plan(seconds: float, ladder: bool = True) -> List[Phase]:
    """Warm-up, base rate, then (``ladder``) the ladder, back to back."""
    warm = min(WARMUP_S, 0.05 * seconds)
    base = BASE_SHARE * seconds if ladder else seconds - warm
    rung = (seconds - warm - base) / len(LADDER_RPS)
    phases = [Phase("warmup", BASE_RPS, 0.0, warm),
              Phase("base", BASE_RPS, warm, base)]
    at = warm + base
    for rate in LADDER_RPS if ladder else ():
        phases.append(Phase(f"ladder{rate:g}", rate, at, rung))
        at += rung
    return phases


def request_schedule(seed: int, phases: Sequence[Phase], sites: List[str]
                     ) -> List[Tuple[int, float, bytes]]:
    """(phase index, due offset, body) for every request, in order.

    Each phase has its own seeded Poisson schedule, so the same seed
    always yields byte-identical requests at identical offsets.
    """
    from repro.frontend.loadgen import build_schedule, resolve_loadgen_mix

    mix = resolve_loadgen_mix("tpcw")
    out = []
    for p, phase in enumerate(phases):
        for planned in build_schedule(rps=phase.rate,
                                      duration=phase.duration, mix=mix,
                                      sites=sites, seed=seed * 1009 + p):
            body = json.dumps({"site": planned.site,
                               "class": planned.request_class,
                               "interaction": planned.interaction})
            out.append((p, phase.start + planned.at, body.encode("utf-8")))
    return out


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------
async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


class _Connections:
    """At most ``size`` keep-alive connections, opened lazily.

    A request that is already past its deadline when a connection frees
    up is never sent: it fails at once and leaves the connection as it
    was.  One sent is always read to the end, so a backlog drains at the
    server's full rate instead of spiralling into reconnects.
    """

    def __init__(self, host: str, port: int, size: int) -> None:
        self.host, self.port = host, port
        self.pool: "asyncio.Queue" = asyncio.Queue()
        for _ in range(size):
            self.pool.put_nowait(None)

    async def exchange(self, body: bytes, deadline: float
                       ) -> Optional[Tuple[int, bytes]]:
        """(status, body), or None when the deadline passed unsent."""
        conn = await self.pool.get()
        try:
            if time.monotonic() >= deadline:
                return None
            if conn is None:
                conn = await asyncio.open_connection(self.host, self.port)
            reader, writer = conn
            writer.write(
                b"POST /admit HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body
            )
            await writer.drain()
            status, payload = await _read_response(reader)
            if status != 200:  # the server closes after any error
                writer.close()
                conn = None
            return status, payload
        except BaseException:
            if conn is not None:
                conn[1].close()
            conn = None
            raise
        finally:
            self.pool.put_nowait(conn)

    async def close(self) -> None:
        while not self.pool.empty():
            conn = self.pool.get_nowait()
            if conn is not None:
                conn[1].close()


async def _fire(conns: _Connections, due: float, lateness_ms: float,
                body: bytes) -> stats.Outcome:
    outcome = stats.Outcome(due=due, lateness_ms=lateness_ms)
    deadline = due + REQUEST_TIMEOUT_S
    try:
        # the hard limit only guards against a connection that hangs
        answer = await asyncio.wait_for(conns.exchange(body, deadline),
                                        HANG_TIMEOUT_S)
    except asyncio.TimeoutError:
        answer = None
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        outcome.error = type(exc).__name__
        return outcome
    latency_ms = (time.monotonic() - due) * 1e3
    if answer is None or latency_ms > stats.UNANSWERED_MS:
        outcome.error = "timeout"
        return outcome
    outcome.status, payload = answer
    outcome.latency_ms = latency_ms
    if outcome.status == 200:
        try:
            verdict = json.loads(payload.decode("utf-8"))["admitted"]
        except (ValueError, KeyError, TypeError):
            outcome.error = "unparsable"
            return outcome
        if not isinstance(verdict, bool):
            outcome.error = "unparsable"
            return outcome
        outcome.admitted = verdict
    return outcome


async def drive(host: str, port: int, requests, connections: int
                ) -> Tuple[float, List[Tuple[int, stats.Outcome]]]:
    """Send every request at its due time; (t0, [(phase, outcome)])."""
    conns = _Connections(host, port, connections)
    tasks = []
    t0 = time.monotonic() + 0.05
    try:
        for phase, offset, body in requests:
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness_ms = max(0.0, time.monotonic() - due) * 1e3
            tasks.append((phase, asyncio.ensure_future(
                _fire(conns, due, lateness_ms, body))))
        results = [(phase, await task) for phase, task in tasks]
    finally:
        for _, task in tasks:
            task.cancel()
        await conns.close()
    return t0, results


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
@dataclass
class _Backend:
    proc: subprocess.Popen
    report: Path
    log: Path
    port: int = 0
    problems: List[str] = field(default_factory=list)


class AdmitLive:
    name = "admit-live"

    def __init__(self, prepared, seed: int) -> None:
        self.prepared = prepared
        self.seed = seed
        self.sites = [f"site{i}" for i in range(SITES)]
        self.work = prepared.root / ".bench_build" / "perfbench" / "admit"

    def serve_args(self, duration: float) -> List[str]:
        return ["--sites", str(SITES), "--profile", PROFILE,
                "--scale", str(SCALE), "--meter", str(self.prepared.meter),
                "--seed", str(1000 + 64 * self.seed), "--port", "0",
                "--duration", f"{duration:.1f}"]

    def setup(self):
        """What the backend does before serving, in this process: load
        the meter, build the ticking service, the gateway and the
        server (not started), then tear the service down again."""
        from repro import cli
        from repro.control.service import SiteSpec
        from repro.core.capacity import CapacityMeter
        from repro.core.labeler import SlaOracle
        from repro.frontend.gateway import AdmitGateway
        from repro.frontend.server import HttpCapacityServer

        args = cli.build_parser().parse_args(
            ["serve-http", *self.serve_args(1.0)])
        labeler = SlaOracle()
        meter = CapacityMeter.load(args.meter, labeler=labeler)
        specs = [SiteSpec(name=f"site{i}", seed=args.seed + i,
                          confidence_floor=args.confidence_floor)
                 for i in range(args.sites)]
        service, _, cleanup = cli._serve_http_backend(args, meter, labeler,
                                                      specs)
        gateway = AdmitGateway(specs, lambda: service.snapshot,
                               order_protect=args.order_protect)
        HttpCapacityServer(gateway, host=args.host, port=args.port,
                           queue_limit=args.queue_limit,
                           concurrency=args.concurrency,
                           deadline=args.deadline,
                           drain_grace=args.drain_grace)
        cleanup()
        return service

    def _start(self, trace: bool, duration: float,
               cpu: Optional[int]) -> _Backend:
        self.work.mkdir(parents=True, exist_ok=True)
        report = self.work / f"report-{os.getpid()}.json"
        log = self.work / f"backend-{os.getpid()}.log"
        for stale in (report, log):
            if stale.exists():
                stale.unlink()
        cmd = [sys.executable, "-m", "perfbench.backend",
               "--report", str(report), "--trace", str(int(trace)),
               *(["--cpu", str(cpu)] if cpu is not None else []), "--",
               *self.serve_args(duration)]
        env = program_env(self.prepared.root)
        env["PYTHONPATH"] = (str(self.prepared.root) + os.pathsep
                             + env["PYTHONPATH"])
        t0 = time.monotonic()
        with open(log, "w") as sink:
            proc = subprocess.Popen(cmd, cwd=self.prepared.root, env=env,
                                    stdout=sink, stderr=subprocess.STDOUT)
        backend = _Backend(proc, report, log)
        while time.monotonic() - t0 < READY_TIMEOUT_S:
            for line in log.read_text().splitlines():
                if line.startswith("# serving") and "http://" in line:
                    backend.port = int(line.split("http://")[1]
                                       .split()[0].rsplit(":", 1)[1])
                    return backend
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        self._stop(backend)
        raise RuntimeError(
            f"backend did not start serving:\n{log.read_text()[-2000:]}")

    def _stop(self, backend: _Backend) -> Optional[dict]:
        """SIGTERM (graceful drain), wait, and read the backend report."""
        if backend.proc.poll() is None:
            backend.proc.send_signal(signal.SIGTERM)
        try:
            backend.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            backend.proc.kill()
            backend.proc.wait()
            backend.problems.append("backend did not exit after SIGTERM")
        if backend.proc.returncode != 0:
            backend.problems.append(
                f"backend exited with {backend.proc.returncode}; its "
                f"output is in {backend.log}")
        if not backend.report.exists():
            backend.problems.append("backend wrote no report")
            return None
        report = json.loads(backend.report.read_text())
        backend.report.unlink()
        if backend.proc.returncode == 0:
            backend.log.unlink()
        spans = backend.report.with_suffix(".npz")
        if spans.exists():
            spans.replace(self.work.parent / f"spans-{self.name}.npz")
        return report

    def run(self, seconds: float, trace: bool) -> RunResult:
        setup_s, _ = timed_setups(self.setup)
        phases = load_plan(seconds, ladder=trace)
        requests = request_schedule(self.seed, phases, self.sites)
        cpus = sorted(os.sched_getaffinity(0))
        connections = max(1, min(2, len(cpus)))
        # server and generator on cores of their own, as on two hosts:
        # the generator never takes the server's core, and the run does
        # not depend on where the scheduler happened to put them
        pinned = len(cpus) >= 2
        backend = self._start(trace, duration=seconds + 120.0,
                              cpu=cpus[0] if pinned else None)
        try:
            if pinned:
                os.sched_setaffinity(0, {cpus[1]})
            # a collection pause in the generator would be charged to
            # the server as latency: none while the load runs
            gc.collect()
            gc.disable()
            t0, results = asyncio.run(
                drive("127.0.0.1", backend.port, requests, connections))
        finally:
            gc.enable()
            os.sched_setaffinity(0, cpus)
            report = self._stop(backend)
        problems = list(backend.problems)
        if report is None:
            return RunResult(self.name, 1, 1, problems, {})
        return self._result(trace, phases, t0, results, report, setup_s,
                            problems)

    def _result(self, trace, phases, t0, results, report, setup_s,
                problems) -> RunResult:
        by_phase: Dict[int, List[stats.Outcome]] = {}
        for phase, outcome in results:
            by_phase.setdefault(phase, []).append(outcome)
        reports = {p: stats.summarize_interval(phases[p].rate, by_phase.get(p, []))
                   for p in range(len(phases))}
        base = reports[1]
        for p, rep in reports.items():
            if not rep.accounted:
                problems.append(f"{phases[p].label}: admitted + rejected + "
                                f"failed != sent")
            unparsable = sum(1 for o in by_phase.get(p, [])
                             if o.error == "unparsable")
            if unparsable:
                problems.append(f"{phases[p].label}: {unparsable} responses "
                                f"did not parse")
        ladder = [reports[1]] + [reports[p] for p in range(2, len(phases))]
        base_start = t0 + phases[1].start
        base_end = base_start + phases[1].duration
        load_end = t0 + phases[-1].start + phases[-1].duration
        live = stats.covered_share(t0, load_end, report["tick_loop"]["done"])
        if base.lateness_ms_p99 > stats.LATE_LIMIT_MS:
            problems.append(
                f"invalid: the generator fell behind (p99 send lateness "
                f"{base.lateness_ms_p99:.1f} ms > {stats.LATE_LIMIT_MS} ms)")
        if live < 1.0:
            problems.append(
                f"invalid: the backend's tick loop went idle before the "
                f"load ended (live for {live:.1%} of it)")

        # the tick thread's progress and CPU over the base interval,
        # interpolated between its per-tick marks
        marks = report["marks"]
        cpu = (stats.interpolate(marks, base_end, 1)
               - stats.interpolate(marks, base_start, 1))
        window = report["window"]
        # windows per second of the tick thread's own CPU time, median
        # over one-second chunks of the base interval: how fast the
        # deciding thread decides while HTTP shares its core (how much
        # of the core it gets is backend.tick_busy_share)
        rates = []
        for j in range(int(phases[1].duration // RATE_CHUNK_S)):
            a, b = (base_start + j * RATE_CHUNK_S,
                    base_start + (j + 1) * RATE_CHUNK_S)
            ticks = (stats.interpolate(marks, b, 2)
                     - stats.interpolate(marks, a, 2))
            busy = (stats.interpolate(marks, b, 1)
                    - stats.interpolate(marks, a, 1))
            if busy > 0:
                rates.append(ticks * SITES / window / busy)
        windows_per_s = stats.median(rates)
        tick_ms = [(b[0] - a[0]) * 1e3 for a, b in zip(marks, marks[1:])
                   if base_start <= a[0] and b[0] <= base_end]
        problems += self._check_windows(report)
        scored = [ok for _, _, index, ok in report["decisions"]
                  if index < SCORED_WINDOWS]
        failures: Dict[str, int] = {}
        for o in by_phase.get(1, []):
            if o.failed:
                kind = o.error or f"HTTP {o.status}"
                failures[kind] = failures.get(kind, 0) + 1
        notes = [f"base: {base.sent} requests at {BASE_RPS:g} rps, "
                 f"{base.failed} failed {failures or ''}; ladder p99 ms "
                 + ", ".join(f"{r.rate:g}:{r.latency_ms_p99:.1f}"
                             for r in ladder)]
        probes = [sec for at, sec in report["probe"] if t0 <= at <= load_end]
        result = RunResult(self.name, max(base.sent, 1), base.failed,
                           problems, {}, notes=notes,
                           slowdown=stats.median(probes) / NOMINAL_PROBE_S)
        if not trace:
            nominal = stats.latencies_at_nominal_speed(by_phase.get(1, []),
                                                       result.slowdown)
            result.nominal = {
                "latency_ms_p50": stats.percentile(nominal, 50.0),
            }
            result.notes.append(stats.tail_note(
                "admit latency at nominal speed:", nominal))
            result.metrics = {
                "setup_s": setup_s,
                "windows_per_s": windows_per_s,
                "latency_ms_p50": base.latency_ms_p50,
                "decision_accuracy": stats.accuracy(scored),
                "peak_rss_mb": report["peak_rss_mb"],
            }
            return result
        tr = report["trace"]
        totals = tr["totals"]
        server = report["server_stats"]
        # the accounting table covers the tick thread, whose layers
        # should explain its whole traced wall time
        result.totals = tr["tick_totals"]
        result.wall_s = tr["tick_wall_s"]
        result.notes.append(
            f"HTTP thread: gateway self {totals['gateway']['self_s']:.4f}s "
            f"over {totals['gateway']['calls']:.0f} admits")
        result.metrics = layer_metrics(
            totals,
            events=report["events"],
            wall_s=tr["tick_wall_s"],
            root_s=tr["tick_root_s"],
            spans=tr["spans"],
            # no untraced twin of a live backend: the calibrated cost of
            # one span times the spans recorded, over the traced wall
            overhead_share=(tr["spans"] * tr["span_cost_s"]
                            / tr["tick_wall_s"]),
            extra={
                "http.requests": float(server.get("requests", 0)),
                "http.queue_full": float(server.get("queue_full", 0)),
                "http.deadline_exceeded": float(
                    server.get("deadline_exceeded", 0)),
                "backend.tick_busy_share": cpu / phases[1].duration,
                "backend.live_share": live,
                "loadgen.lateness_ms_p50": base.lateness_ms_p50,
                "loadgen.lateness_ms_p99": base.lateness_ms_p99,
                "tick_ms_p50": stats.percentile(tick_ms, 50),
                "tick_ms_p99": stats.percentile(tick_ms, 99),
                "admit_p99_ms": base.latency_ms_p99,
                "admit_ok_share": base.ok_share,
                "admit_max_rps": stats.max_sustained_rate(ladder),
                "failed_share": base.failed / max(base.sent, 1),
            },
        )
        return result

    @staticmethod
    def _check_windows(report) -> List[str]:
        """Every site decided one window per ``window`` ticks it ran."""
        expected = report["final_ticks"] // report["window"]
        counts: Dict[str, int] = {}
        for _, name, _, _ in report["decisions"]:
            counts[name] = counts.get(name, 0) + 1
        return [f"{name}: decided {counts.get(name, 0)} windows, expected "
                f"{expected}" for name in report["sites"]
                if counts.get(name, 0) != expected]
