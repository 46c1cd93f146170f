"""P3 — discrete-event simulator throughput (events per second).

Runs one fixed-seed testbed run, the shopping mix under the stress
schedule the live path serves, through the same ``run_schedule`` that
``repro simulate`` and training use, and reports simulator events per
wall second of that run.  The run's measurement stream is hashed and
must match the pinned value below: a speed-up that changes what the
simulator computes fails here before its timing is recorded.  The
numbers land in ``benchmarks/results/BENCH_sim.json`` with the host's
CPU core count; ``compare_baselines.py`` gates ``events_per_s``
against the ``sim_events_per_s`` baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.experiments.testbed import run_schedule, stress_schedule
from repro.telemetry.persistence import run_to_dict
from repro.workload.tpcw import STANDARD_MIXES

from conftest import RESULTS_DIR

MIX = "shopping"
SCALE = 0.2
SEED = 7
#: sha256 of the run's canonical JSON measurement stream
GOLDEN = (
    "bf969ef3e02d94afa85e8a34c0a6121e"
    "a66fb836caaea691c33f8c86db5d57d0"
)


def test_simulator_events_per_s(record_result):
    mix = STANDARD_MIXES[MIX]
    schedule = stress_schedule(mix, scale=SCALE)
    start = time.perf_counter()
    output = run_schedule(
        schedule, mix, workload_name=f"stress-{MIX}", seed=SEED
    )
    run_s = time.perf_counter() - start
    stream_sha256 = hashlib.sha256(
        json.dumps(run_to_dict(output.run), sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert stream_sha256 == GOLDEN

    payload = {
        "name": "simulator",
        "mix": MIX,
        "profile": "stress",
        "scale": SCALE,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "events": output.events_executed,
        "run_s": round(run_s, 4),
        "events_per_s": round(output.events_executed / run_s, 1),
        "stream_sha256": stream_sha256,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_result(
        "simulator", [f"{key}: {value}" for key, value in payload.items()]
    )
