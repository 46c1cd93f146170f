"""Compare fresh benchmark results against committed baselines.

The bench-regression CI job (and any developer, locally) runs the
benchmark suite and then this comparator.  Six artifacts are
tracked, covering the repository's performance-sensitive subsystems:

* ``decision_time.txt`` — per-learner synopsis build + decide cost;
* ``BENCH_parallel.json`` — serial build, cold-cache and warm-cache
  wall clock (``parallel_s`` is deliberately ignored: it depends on
  the host's core count, not on the code);
* ``BENCH_serve.json`` — fleet-scale serving throughput: the per-site
  loop and the structure-of-arrays fleet path over the same 1k-site
  replay;
* ``BENCH_shards.json`` — the multi-process sharded service against
  the single-process fleet path (absolute wall clocks are deliberately
  not baseline-compared: like ``parallel_s`` they depend on the host's
  core count; the recorded ``shard_speedup`` gates instead);
* ``BENCH_sim.json`` — discrete-event simulator events per second on
  a fixed-seed stress run (a rate, so it gates as its inverse, the
  cost per event, under the same one-sided timing tolerance);
* ``fig4_coordinated_accuracy.txt`` — coordinated prediction accuracy
  across the four workloads at both metric levels.

Two more artifacts gate standalone because they come from dedicated CI
jobs, not the benchmark suite.  ``BENCH_retrain.json`` (``--only
retrain``, written by ``benchmarks/test_retrain.py`` for the
drift-retrain job) asserts the warm retrain reused the artifact cache —
zero rebuilt artifacts and a >= 2x cold/warm speedup on any host — and
compares its wall clock against the ``retrain_warm_s`` baseline on
hosts with at least 4 cores.  And ``BENCH_http.json`` (written by ``repro loadgen``
against a live ``repro serve-http``), is gated separately via
``--only http`` because it is produced by the http-slo CI job, not the
benchmark suite: its admit-latency percentiles compare against the
``http_ms`` baselines, its p99 must clear a hard SLO ceiling, and its
error/timeout/5xx counters must all be zero.  Latency gates are
cores-aware — hosts below 4 CPUs report SKIPPED rather than passing an
SLO they cannot meaningfully measure — but the zero-error gates apply
on any host.

Timing metrics are compared one-sidedly: a fresh number may beat the
baseline by any margin but may exceed it only by ``--time-tolerance``
(a fraction; 0.2 means +20%).  Accuracy metrics are deterministic at
fixed seed and scale, so they must match the baseline exactly unless
``--accuracy-tolerance`` loosens them.

On top of the baseline deltas, three *speedup floors* gate from the
fresh artifacts alone.  The fleet-serving floor (``fleet_speedup``
>= 5) compares two interpreter-bound runs on the same host, so it
always applies; the parallel-engine floor (``parallel_speedup`` >= 2)
and the sharded-serving floor (``shard_speedup`` >= 2 at 4 workers)
need real cores, so hosts reporting fewer than 4 CPUs show those rows
as SKIPPED instead of letting a 1-core runner pass them vacuously —
each bench records ``cpu_count`` in its artifact for exactly this.
One *overhead ceiling* gates the other way: the self-healing
supervisor's no-fault tax (``supervised_overhead``, supervised over
supervision-off sharded wall clock) must stay at or below 1.10x.

Usage::

    # refresh committed baselines after an intentional perf change
    REPRO_BENCH_SCALE=0.25 REPRO_BENCH_WINDOW=10 \
        python -m pytest benchmarks/test_decision_time.py \
            benchmarks/test_parallel_engine.py \
            benchmarks/test_serve_fleet.py \
            benchmarks/test_serve_shards.py \
            benchmarks/test_sim.py \
            benchmarks/test_fig4_coordinated_accuracy.py
    python benchmarks/compare_baselines.py --update

    # gate a change (CI uses a wider tolerance for shared runners)
    python benchmarks/compare_baselines.py --time-tolerance 0.2

Exit status: 0 all within tolerance, 1 regression, 2 missing inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RESULTS_DIR = Path(__file__).parent / "results"
BASELINES = RESULTS_DIR / "baselines.json"

#: BENCH_parallel.json keys that gate (host-independent wall clocks)
PARALLEL_KEYS = ("serial_s", "cold_cache_s", "warm_cache_s")

#: BENCH_serve.json keys that gate against the committed baseline
SERVE_KEYS = ("per_site_s", "fleet_s")

#: hard speedup floors checked from the fresh artifacts alone:
#: (artifact, speedup key, floor, cores needed or None for always)
SPEEDUP_FLOORS = (
    ("BENCH_parallel.json", "parallel_speedup", 2.0, 4),
    ("BENCH_serve.json", "fleet_speedup", 5.0, None),
    ("BENCH_shards.json", "shard_speedup", 2.0, 4),
)

#: hard overhead ceilings checked from the fresh artifacts alone:
#: (artifact, ratio key, ceiling, cores needed or None for always).
#: ``supervised_overhead`` is the self-healing supervisor's no-fault
#: tax: supervised sharded wall clock over the supervision-off run on
#: the same host — a ratio of two like runs, so host-independent.
OVERHEAD_CEILINGS = (
    ("BENCH_shards.json", "supervised_overhead", 1.10, 4),
)

#: BENCH_http.json admit-latency percentiles gated against ``http_ms``
HTTP_KEYS = ("p50", "p99", "p999")

#: the warm-retrain wall clock gated against ``retrain_warm_s``; the
#: cache-reuse floor (``warm_speedup`` >= 2) is a ratio of two like
#: runs on the same host, so it applies everywhere
RETRAIN_WARM_SPEEDUP_FLOOR = 2.0

#: cores below which the warm-retrain wall-clock comparison SKIPs
#: (shared 1-core runners jitter; the drift-retrain CI job separately
#: asserts its runner is big enough, so the gate never passes vacuously)
RETRAIN_CORES = 4

#: the hard SLO on the HTTP decision path: admit p99 in milliseconds.
#: Calibrated from a loaded smoke run (p99 ~7 ms on a small host) with
#: generous headroom for shared CI runners.
HTTP_SLO_P99_MS = 50.0

#: cores below which latency gates SKIP instead of passing vacuously
HTTP_SLO_CORES = 4

_DECISION_ROW = re.compile(r"^(\w+)\s+([\d.]+)\s+(?:[\d.]+|-)\s*$")
_FIG4_ROW = re.compile(
    r"^(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$"
)
_FIG4_COLUMNS = ("os_ba", "hpc_ba", "os_bottleneck", "hpc_bottleneck")


def parse_decision_time(path: Path) -> Dict[str, float]:
    """``{learner: measured_ms}`` from the T-TIME text artifact."""
    out: Dict[str, float] = {}
    for line in path.read_text().splitlines():
        match = _DECISION_ROW.match(line.strip())
        if match and match.group(1) != "Learner":
            out[match.group(1)] = float(match.group(2))
    if not out:
        raise ValueError(f"no learner rows found in {path}")
    return out


def parse_fig4(path: Path) -> Dict[str, Dict[str, float]]:
    """``{workload: {column: value}}`` from the Fig. 4 text artifact.

    The trailing bar-chart lines contain ``|`` and never match the
    four-float row pattern, so only the table body is read.
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in path.read_text().splitlines():
        match = _FIG4_ROW.match(line.strip())
        if match and match.group(1) != "Workload":
            out[match.group(1)] = {
                column: float(match.group(i + 2))
                for i, column in enumerate(_FIG4_COLUMNS)
            }
    if not out:
        raise ValueError(f"no workload rows found in {path}")
    return out


def parse_parallel(path: Path) -> Dict[str, float]:
    payload = json.loads(path.read_text())
    return {key: float(payload[key]) for key in PARALLEL_KEYS}


def parse_serve(path: Path) -> Dict[str, float]:
    payload = json.loads(path.read_text())
    return {key: float(payload[key]) for key in SERVE_KEYS}


def parse_sim(path: Path) -> float:
    return float(json.loads(path.read_text())["events_per_s"])


def parse_http(path: Path) -> Dict[str, float]:
    """``{percentile: ms}`` from the loadgen's BENCH_http.json."""
    latency = json.loads(path.read_text())["admit_latency_ms"]
    return {key: float(latency[key]) for key in HTTP_KEYS}


def check_http_slo(
    results_dir: Path, failures: List[str], rows: List[str]
) -> None:
    """Gate the HTTP decision path: zero errors, p99 under the SLO.

    The correctness gates (errors / timeouts / 5xx all zero, and the
    run actually drove traffic) apply on any host.  The p99 ceiling is
    cores-aware like the parallelism floors: below ``HTTP_SLO_CORES``
    the row reports SKIPPED — the http-slo CI job separately asserts
    its runner is big enough, so the gate never passes vacuously there.
    """
    payload = json.loads((results_dir / "BENCH_http.json").read_text())
    requests = int(payload.get("requests", 0))
    verdict = "ok" if requests > 0 else "REGRESSION"
    rows.append(f"  http.{'requests':16} {requests:21d}  must be > 0  {verdict}")
    if requests <= 0:
        failures.append("BENCH_http.json: the loadgen drove no requests")
    for key in ("errors", "timeouts", "status_5xx"):
        count = int(payload.get(key, 0))
        verdict = "ok" if count == 0 else "REGRESSION"
        rows.append(f"  http.{key:16} {count:21d}  must be 0    {verdict}")
        if count:
            failures.append(f"BENCH_http.json:{key}: {count} != 0")
    p99 = float(payload["admit_latency_ms"]["p99"])
    cpu_count = int(payload.get("cpu_count") or 1)
    if cpu_count < HTTP_SLO_CORES:
        rows.append(
            f"  http.p99          {p99:18.3f} ms  SLO {HTTP_SLO_P99_MS:.0f} ms"
            f"      SKIPPED ({cpu_count} < {HTTP_SLO_CORES} cores)"
        )
        return
    verdict = "ok" if p99 <= HTTP_SLO_P99_MS else "REGRESSION"
    rows.append(
        f"  http.p99          {p99:18.3f} ms  SLO {HTTP_SLO_P99_MS:.0f} ms"
        f"      {verdict}"
    )
    if p99 > HTTP_SLO_P99_MS:
        failures.append(
            f"BENCH_http.json: admit p99 {p99:.3f} ms breaches the "
            f"{HTTP_SLO_P99_MS:.0f} ms SLO"
        )


def collect(results_dir: Path) -> Dict[str, object]:
    """Current benchmark numbers, or raise FileNotFoundError."""
    shards = json.loads((results_dir / "BENCH_shards.json").read_text())
    return {
        "decision_time_ms": parse_decision_time(
            results_dir / "decision_time.txt"
        ),
        "parallel_engine_s": parse_parallel(
            results_dir / "BENCH_parallel.json"
        ),
        "serve_s": parse_serve(results_dir / "BENCH_serve.json"),
        "sim_events_per_s": parse_sim(results_dir / "BENCH_sim.json"),
        # informational (floor/ceiling-gated from the fresh artifact,
        # never baseline-compared: wall clocks scale with the host's
        # cores)
        "shard_speedup": float(shards["shard_speedup"]),
        "supervised_overhead": float(
            shards.get("supervised_overhead", 1.0)
        ),
        "fig4_accuracy": parse_fig4(
            results_dir / "fig4_coordinated_accuracy.txt"
        ),
    }


def check_speedup_floors(
    results_dir: Path, failures: List[str], rows: List[str]
) -> None:
    """Gate the recorded speedups against their hard floors.

    A floor that needs more cores than the artifact's ``cpu_count``
    reports SKIPPED — a small runner must not pass a parallelism gate
    it never actually exercised.
    """
    for artifact, key, floor, cores_needed in SPEEDUP_FLOORS:
        payload = json.loads((results_dir / artifact).read_text())
        speedup = float(payload[key])
        cpu_count = int(payload.get("cpu_count", 1))
        if cores_needed is not None and cpu_count < cores_needed:
            rows.append(
                f"  {key:28} {speedup:6.2f}x  floor {floor:.1f}x  "
                f"SKIPPED ({cpu_count} < {cores_needed} cores)"
            )
            continue
        verdict = "ok" if speedup >= floor else "REGRESSION"
        rows.append(
            f"  {key:28} {speedup:6.2f}x  floor {floor:.1f}x  {verdict}"
        )
        if speedup < floor:
            failures.append(
                f"{artifact}:{key}: {speedup:.2f}x below the "
                f"{floor:.1f}x floor"
            )


def check_overhead_ceilings(
    results_dir: Path, failures: List[str], rows: List[str]
) -> None:
    """Gate the recorded overhead ratios against their hard ceilings.

    Mirrors :func:`check_speedup_floors` with the inequality flipped:
    a ratio *above* its ceiling is a regression.  Artifacts written
    before the ratio existed pass (there is nothing to gate yet).
    """
    for artifact, key, ceiling, cores_needed in OVERHEAD_CEILINGS:
        payload = json.loads((results_dir / artifact).read_text())
        if key not in payload:
            rows.append(
                f"  {key:28}    n/a   ceiling {ceiling:.2f}x  "
                f"SKIPPED (not recorded)"
            )
            continue
        overhead = float(payload[key])
        cpu_count = int(payload.get("cpu_count", 1))
        if cores_needed is not None and cpu_count < cores_needed:
            rows.append(
                f"  {key:28} {overhead:6.2f}x  ceiling {ceiling:.2f}x  "
                f"SKIPPED ({cpu_count} < {cores_needed} cores)"
            )
            continue
        verdict = "ok" if overhead <= ceiling else "REGRESSION"
        rows.append(
            f"  {key:28} {overhead:6.2f}x  ceiling {ceiling:.2f}x  "
            f"{verdict}"
        )
        if overhead > ceiling:
            failures.append(
                f"{artifact}:{key}: {overhead:.2f}x above the "
                f"{ceiling:.2f}x ceiling"
            )


def _compare_timing(
    label: str,
    baseline: Dict[str, float],
    fresh: Dict[str, float],
    tolerance: float,
    failures: List[str],
    rows: List[str],
) -> None:
    for key, base in sorted(baseline.items()):
        current: Optional[float] = fresh.get(key)
        if current is None:
            failures.append(f"{label}.{key}: missing from fresh results")
            continue
        ceiling = base * (1.0 + tolerance)
        verdict = "ok" if current <= ceiling else "REGRESSION"
        rows.append(
            f"  {label}.{key:16} base {base:10.4f}  "
            f"now {current:10.4f}  ceiling {ceiling:10.4f}  {verdict}"
        )
        if current > ceiling:
            failures.append(
                f"{label}.{key}: {current:.4f} exceeds "
                f"{base:.4f} +{tolerance * 100:.0f}% = {ceiling:.4f}"
            )


def _compare_accuracy(
    baseline: Dict[str, Dict[str, float]],
    fresh: Dict[str, Dict[str, float]],
    tolerance: float,
    failures: List[str],
    rows: List[str],
) -> None:
    for workload, columns in sorted(baseline.items()):
        got = fresh.get(workload)
        if got is None:
            failures.append(f"fig4.{workload}: missing from fresh results")
            continue
        for column, base in columns.items():
            current = got.get(column)
            if current is None:
                failures.append(f"fig4.{workload}.{column}: missing")
                continue
            delta = abs(current - base)
            verdict = "ok" if delta <= tolerance else "MISMATCH"
            rows.append(
                f"  fig4.{workload}.{column:15} base {base:6.3f}  "
                f"now {current:6.3f}  {verdict}"
            )
            if delta > tolerance:
                failures.append(
                    f"fig4.{workload}.{column}: {current:.3f} != "
                    f"{base:.3f} (tolerance {tolerance})"
                )


def compare(
    baselines: Dict[str, object],
    fresh: Dict[str, object],
    *,
    time_tolerance: float,
    accuracy_tolerance: float,
) -> Tuple[List[str], List[str]]:
    """(report rows, failure messages) for fresh vs. baseline."""
    failures: List[str] = []
    rows: List[str] = []
    _compare_timing(
        "decision_time_ms",
        baselines["decision_time_ms"],
        fresh["decision_time_ms"],
        time_tolerance,
        failures,
        rows,
    )
    _compare_timing(
        "parallel_engine_s",
        baselines["parallel_engine_s"],
        fresh["parallel_engine_s"],
        time_tolerance,
        failures,
        rows,
    )
    _compare_timing(
        "serve_s",
        baselines.get("serve_s", {}),
        fresh["serve_s"],
        time_tolerance,
        failures,
        rows,
    )
    # a rate gates as its inverse: the tolerance bounds the cost per
    # event exactly as it bounds a wall clock
    _compare_timing(
        "sim",
        {"us_per_event": 1e6 / float(baselines["sim_events_per_s"])},
        {"us_per_event": 1e6 / float(fresh["sim_events_per_s"])},
        time_tolerance,
        failures,
        rows,
    )
    _compare_accuracy(
        baselines["fig4_accuracy"],
        fresh["fig4_accuracy"],
        accuracy_tolerance,
        failures,
        rows,
    )
    return rows, failures


def main_http(args: argparse.Namespace) -> int:
    """The ``--only http`` path: gate BENCH_http.json by itself.

    The artifact is *required* — a missing file is exit 2, never a
    pass — and ``--update`` merges the fresh ``http_ms`` percentiles
    into the committed baselines without touching the suite's numbers.
    """
    http_path = args.results_dir / "BENCH_http.json"
    try:
        fresh = parse_http(http_path)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"cannot read {http_path}: {exc}")
        print(
            "drive the server first, e.g.\n"
            "  make slo-check\n"
            "or manually:\n"
            "  repro serve-http --sites 2 --scale 0.2 --port 8127 "
            "--duration 45 &\n"
            "  repro loadgen --url http://127.0.0.1:8127 --rps 200 "
            "--duration 10 --out benchmarks/results/BENCH_http.json"
        )
        return 2

    if args.update:
        merged: Dict[str, object] = {}
        if args.baselines.is_file():
            merged = json.loads(args.baselines.read_text())
        merged["http_ms"] = fresh
        args.baselines.parent.mkdir(parents=True, exist_ok=True)
        args.baselines.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"http_ms baselines updated: {args.baselines}")
        return 0

    if not args.baselines.is_file():
        print(f"no baselines at {args.baselines}; run with --update first")
        return 2
    baselines = json.loads(args.baselines.read_text())
    if "http_ms" not in baselines:
        print(
            f"{args.baselines} has no http_ms section; "
            "run --only http --update first"
        )
        return 2

    failures: List[str] = []
    rows: List[str] = []
    payload = json.loads(http_path.read_text())
    cpu_count = int(payload.get("cpu_count") or 1)
    if cpu_count >= HTTP_SLO_CORES:
        _compare_timing(
            "http_ms",
            baselines["http_ms"],
            fresh,
            args.time_tolerance,
            failures,
            rows,
        )
    else:
        rows.append(
            f"  http_ms baseline comparison SKIPPED "
            f"({cpu_count} < {HTTP_SLO_CORES} cores)"
        )
    check_http_slo(args.results_dir, failures, rows)
    print(
        f"gating {http_path} against {args.baselines} "
        f"(time +{args.time_tolerance * 100:.0f}%, "
        f"SLO p99 <= {HTTP_SLO_P99_MS:.0f} ms)"
    )
    for row in rows:
        print(row)
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nhttp decision path within SLO")
    return 0


def main_retrain(args: argparse.Namespace) -> int:
    """The ``--only retrain`` path: gate BENCH_retrain.json by itself.

    Three gates.  The cache-reuse gates apply on any host: a warm
    retrain must report zero run/synopsis builds (the artifact cache
    satisfied everything) and must beat the cold build by at least
    ``RETRAIN_WARM_SPEEDUP_FLOOR`` (a same-host ratio).  The
    ``retrain_warm_s`` wall-clock baseline is cores-aware like the
    latency gates: below ``RETRAIN_CORES`` the row reports SKIPPED —
    the drift-retrain CI job separately asserts its runner is big
    enough, so the comparison never passes vacuously there.
    """
    retrain_path = args.results_dir / "BENCH_retrain.json"
    try:
        payload = json.loads(retrain_path.read_text())
        warm_s = float(payload["warm_s"])
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"cannot read {retrain_path}: {exc}")
        print(
            "run the retrain benchmark first, e.g.\n"
            "  REPRO_BENCH_SCALE=0.25 REPRO_BENCH_WINDOW=10 "
            "python -m pytest benchmarks/test_retrain.py"
        )
        return 2

    if args.update:
        merged: Dict[str, object] = {}
        if args.baselines.is_file():
            merged = json.loads(args.baselines.read_text())
        merged["retrain_warm_s"] = warm_s
        args.baselines.parent.mkdir(parents=True, exist_ok=True)
        args.baselines.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"retrain_warm_s baseline updated: {args.baselines}")
        return 0

    if not args.baselines.is_file():
        print(f"no baselines at {args.baselines}; run with --update first")
        return 2
    baselines = json.loads(args.baselines.read_text())
    if "retrain_warm_s" not in baselines:
        print(
            f"{args.baselines} has no retrain_warm_s entry; "
            "run --only retrain --update first"
        )
        return 2

    failures: List[str] = []
    rows: List[str] = []

    # cache reuse: the warm retrain must not rebuild anything, anywhere
    rebuilt = sum(int(v) for v in payload.get("builds_warm", {}).values())
    verdict = "ok" if rebuilt == 0 else "REGRESSION"
    rows.append(
        f"  retrain.warm_builds  {rebuilt:18d}  must be 0    {verdict}"
    )
    if rebuilt:
        failures.append(
            f"BENCH_retrain.json: warm retrain rebuilt {rebuilt} "
            f"artifact(s) instead of loading the cache"
        )
    speedup = float(payload.get("warm_speedup", 0.0))
    verdict = (
        "ok" if speedup >= RETRAIN_WARM_SPEEDUP_FLOOR else "REGRESSION"
    )
    rows.append(
        f"  retrain.warm_speedup {speedup:17.2f}x  floor "
        f"{RETRAIN_WARM_SPEEDUP_FLOOR:.1f}x  {verdict}"
    )
    if speedup < RETRAIN_WARM_SPEEDUP_FLOOR:
        failures.append(
            f"BENCH_retrain.json: warm_speedup {speedup:.2f}x below the "
            f"{RETRAIN_WARM_SPEEDUP_FLOOR:.1f}x cache-reuse floor"
        )

    cpu_count = int(payload.get("cpu_count") or 1)
    if cpu_count >= RETRAIN_CORES:
        _compare_timing(
            "retrain_s",
            {"warm_s": float(baselines["retrain_warm_s"])},
            {"warm_s": warm_s},
            args.time_tolerance,
            failures,
            rows,
        )
    else:
        rows.append(
            f"  retrain_warm_s baseline comparison SKIPPED "
            f"({cpu_count} < {RETRAIN_CORES} cores)"
        )

    print(
        f"gating {retrain_path} against {args.baselines} "
        f"(time +{args.time_tolerance * 100:.0f}%, warm speedup >= "
        f"{RETRAIN_WARM_SPEEDUP_FLOOR:.1f}x)"
    )
    for row in rows:
        print(row)
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nwarm retrain reuses the artifact cache")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=RESULTS_DIR,
        help="directory holding the fresh benchmark artifacts",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=BASELINES,
        help="committed baselines JSON to compare against (or update)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=0.2,
        help="allowed fractional slowdown for timing metrics "
        "(0.2 = +20%%; speedups always pass)",
    )
    parser.add_argument(
        "--accuracy-tolerance",
        type=float,
        default=0.0,
        help="allowed absolute accuracy drift (default: exact match)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the fresh numbers as the new baselines and exit",
    )
    parser.add_argument(
        "--only",
        choices=("all", "http", "retrain"),
        default="all",
        help="'http' gates BENCH_http.json alone (the http-slo CI job "
        "produces no other artifacts); 'retrain' gates "
        "BENCH_retrain.json alone (likewise the drift-retrain job); "
        "'all' gates the benchmark suite",
    )
    args = parser.parse_args(argv)

    if args.only == "http":
        return main_http(args)
    if args.only == "retrain":
        return main_retrain(args)

    try:
        fresh = collect(args.results_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot read fresh benchmark results: {exc}")
        print(
            "run the benchmark suite first, e.g.\n"
            "  REPRO_BENCH_SCALE=0.25 REPRO_BENCH_WINDOW=10 "
            "python -m pytest benchmarks/test_decision_time.py "
            "benchmarks/test_parallel_engine.py "
            "benchmarks/test_serve_fleet.py "
            "benchmarks/test_serve_shards.py "
            "benchmarks/test_sim.py "
            "benchmarks/test_fig4_coordinated_accuracy.py"
        )
        return 2

    if args.update:
        args.baselines.parent.mkdir(parents=True, exist_ok=True)
        args.baselines.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"baselines updated: {args.baselines}")
        return 0

    if not args.baselines.is_file():
        print(f"no baselines at {args.baselines}; run with --update first")
        return 2
    baselines = json.loads(args.baselines.read_text())

    rows, failures = compare(
        baselines,
        fresh,
        time_tolerance=args.time_tolerance,
        accuracy_tolerance=args.accuracy_tolerance,
    )
    check_speedup_floors(args.results_dir, failures, rows)
    check_overhead_ceilings(args.results_dir, failures, rows)
    print(
        f"comparing {args.results_dir} against {args.baselines} "
        f"(time +{args.time_tolerance * 100:.0f}%, "
        f"accuracy ±{args.accuracy_tolerance})"
    )
    for row in rows:
        print(row)
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
