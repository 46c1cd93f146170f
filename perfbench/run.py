"""Live-path benchmark of the capacity meter: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-stress --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that prints the per-layer
metrics (self times of the wrapped layer entry points), the layer
accounting table and the tracing overhead, and writes the spans to
``.bench_build/perfbench/spans-<workload>.npz``.  The last line of
standard output is always the JSON result.  The first run in a checkout
trains the meter and records the fleet streams (the untimed preparation
step); later runs reuse them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics, in the order BENCHMARK.json lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "latency_ms_p50": "ms",
    "decision_accuracy": "share",
    "peak_rss_mb": "MB",
}

#: end-to-end timings reported at nominal host speed (perfbench.speed):
#: multiplied by slowdown ** power, unless already converted
#: (``RunResult.nominal``)
NOMINAL_SCALING = {
    "setup_s": -1,
    "windows_per_s": 1,
    "latency_ms_p50": -1,
}

WORKLOADS = ("live-stress", "fleet-distinct", "admit-live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import stats
    from perfbench.common import SETUP_PROBE, process_start_s
    from perfbench.layers import PER_LAYER_UNITS, accounting_lines
    from perfbench.prepare import ensure_prepared

    prepared = ensure_prepared(ROOT, log=lambda m: print(m, flush=True))

    # a serving process pays interpreter start and imports before it
    # builds anything: timed in fresh processes, added to set-up
    start_s = 0.0 if args.trace else process_start_s(ROOT)

    if args.workload == "live-stress":
        from perfbench.live import LiveStress as Workload
    elif args.workload == "fleet-distinct":
        from perfbench.fleet import FleetDistinct as Workload
    else:
        from perfbench.admit import AdmitLive as Workload
    workload = Workload(prepared, args.seed)
    result = workload.run(args.seconds, bool(args.trace))

    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        units = PER_LAYER_UNITS
        for line in accounting_lines(result.totals, result.wall_s):
            print(line)
        if result.recorder is not None:
            path = (ROOT / ".bench_build" / "perfbench"
                    / f"spans-{args.workload}.npz")
            result.recorder.save(path)
            print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END_UNITS
        metrics = result.metrics
        metrics["setup_s"] += start_s
        # the serving process's own peak (admit-live reports its backend's)
        metrics.setdefault(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        print("# as measured: " + ", ".join(
            f"{name}={metrics[name]:.6g}" for name in NOMINAL_SCALING))
        print(f"# host slowdown {result.slowdown:.4f} in the timed run, "
              f"{SETUP_PROBE.slowdown():.4f} in set-up (speed probe median "
              f"over its nominal); timings below are at nominal speed")
        result.nominal["setup_s"] = (metrics["setup_s"]
                                     / SETUP_PROBE.slowdown())
        for name, power in NOMINAL_SCALING.items():
            if name in result.nominal:
                metrics[name] = result.nominal[name]
            else:
                metrics[name] *= result.slowdown ** power
    missing = set(units) - set(result.metrics)
    if missing:
        raise KeyError(f"workload did not measure {sorted(missing)}")
    values = {name: result.metrics[name] for name in units}
    for line in stats.lines(values, units):
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": stats.metric_block(values, units),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
