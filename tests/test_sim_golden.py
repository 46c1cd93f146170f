"""Bit-identity goldens for the discrete-event simulator.

Each golden is the SHA-256 of the ``repr`` of every
:meth:`MultiTierWebsite.sample` window of a fixed-seed run, followed by
the run's ``events_executed``.  ``repr`` of a float is its shortest
round-trip form, so any change in event order, rate arithmetic or
random draws changes the hash.  Speed work on the simulator must leave
these values alone; a deliberate model change must update them in the
same commit and say why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.testbed import (
    TestbedConfig,
    stress_schedule,
    training_schedule,
)
from repro.frontend.loadgen import build_schedule, schedule_digest
from repro.simulator import AppServer, DatabaseServer, MultiTierWebsite, Simulator
from repro.workload.generator import ScheduleDriver
from repro.workload.rbe import RemoteBrowserEmulator
from repro.workload.tpcw import INTERACTIONS, STANDARD_MIXES, make_unknown_mix

GOLDEN_SCALE = 0.05
GOLDEN_SEED = 7

_SCHEDULES = {"stress": stress_schedule, "training": training_schedule}

#: (mix, profile) -> sha256 of the sample stream + events_executed
SIM_GOLDENS = {
    ("browsing", "stress"): (
        "fb6fb5980c4492b3f567be01e596f23c"
        "a48048735b58b52c7eab4047e5a893c9"
    ),
    ("browsing", "training"): (
        "a17ac4bd7e4b81b7763e470e3d3faaab"
        "bb4559e7e43d80c847ffc76f65c4ecdb"
    ),
    ("shopping", "stress"): (
        "d6594a14d252c29e137d1ac937ac2e79"
        "88123561b0210d1afc45ec8c8e4d99eb"
    ),
    ("shopping", "training"): (
        "504ed97fefcdb9a0f5ad4e8ede8ef231"
        "4c87d75e8aef6bf9c1a5ad13006b5e8a"
    ),
    ("ordering", "stress"): (
        "9227f424b106fa069980c259438f28a6"
        "f8da06b643a44e0036df1ca1233f9fc5"
    ),
    ("ordering", "training"): (
        "53bc9ef03462033bb9bdd96c52a4e6b6"
        "6ea96abcddb5522ba8302c3bcceeb319"
    ),
}

LOADGEN_GOLDEN = (
    "e38c2cdbb2885d11eaaad83dde29eb1a"
    "b5ab85b5f850399f922f74daba777cea"
)


def sample_stream_digest(mix_name: str, profile: str) -> str:
    """SHA-256 of one fixed-seed run's sample stream and event count."""
    config = TestbedConfig()
    mix = STANDARD_MIXES[mix_name]
    schedule = _SCHEDULES[profile](mix, config, scale=GOLDEN_SCALE)
    sim = Simulator()
    website = MultiTierWebsite(
        sim,
        AppServer(sim, workers=config.app_workers),
        DatabaseServer(sim, connections=config.db_connections),
    )
    rbe = RemoteBrowserEmulator(
        sim,
        website,
        mix,
        think_time_mean=config.think_time_mean,
        continuity=config.continuity,
        seed=GOLDEN_SEED,
    )
    ScheduleDriver(sim, rbe, schedule)
    digest = hashlib.sha256()
    interval = config.sampling_interval
    ticks = int(round(schedule.duration / interval))
    for k in range(1, ticks + 1):
        sim.run(until=k * interval)
        digest.update(repr(website.sample()).encode("utf-8"))
    digest.update(f"events={sim.events_executed}".encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("mix_name,profile", sorted(SIM_GOLDENS))
def test_sample_stream_golden(mix_name, profile):
    assert sample_stream_digest(mix_name, profile) == SIM_GOLDENS[
        (mix_name, profile)
    ]


def test_loadgen_schedule_golden():
    schedule = build_schedule(
        rps=150.0,
        duration=5.0,
        mix=STANDARD_MIXES["shopping"],
        sites=[f"site-{i}" for i in range(8)],
        seed=GOLDEN_SEED,
    )
    assert schedule_digest(schedule) == LOADGEN_GOLDEN


@pytest.mark.parametrize(
    "mix",
    [*STANDARD_MIXES.values(), make_unknown_mix(seed=3)],
    ids=lambda m: m.name,
)
def test_mix_sample_matches_generator_choice(mix):
    """``TrafficMix.sample`` draws what ``Generator.choice`` would.

    The mix keeps its own inverse-CDF table for speed; this pins it to
    numpy's ``choice(n, p=...)`` draw for draw, so a numpy release that
    changes ``choice`` is caught here rather than as a silent drift of
    every simulated run.
    """
    names = list(INTERACTIONS)
    probs = mix.probabilities()
    p = [probs[n] for n in names]
    for seed in range(40):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        drawn = [mix.sample(ours).name for _ in range(200)]
        expected = [names[ref.choice(len(names), p=p)] for _ in range(200)]
        assert drawn == expected
        # both consumed the same amount of the stream
        assert ours.random() == ref.random()
