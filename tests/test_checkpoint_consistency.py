"""Crash consistency of service checkpoints.

A service checkpoint is shard monitor files plus a ``service.json``
manifest that names them.  A save that dies before any one of its file
writes must leave a directory that resumes as *exactly* the previous
save or *exactly* the new one — same tick count, gate states and
canonical monitor states — and whose replayed tail is bit-identical to
an uninterrupted run.  Pinned single-process (``--workers 0``) and at
two workers, where the shard files are written by the worker processes:
the failing writer is patched before the pool forks and reads the name
of the file to fail on from a switch file, so the parent and the
workers fail on the same write.

Re-saving into the same directory must never touch a file the current
manifest names, and must remove the shard files the new manifest does
not name (a failed save's, the previous save's, or those of a save at
more workers).
"""

import json
import os
import shutil

import pytest

from repro.control import CapacityService, SiteSpec
from repro.control.shard import ShardedCapacityService
from repro.faults import FaultPlan, FaultSpec, decision_signature
from repro.faults.checkpoint import read_json_checkpoint, write_json_atomic
from repro.parallel.pool import WorkerError
from repro.telemetry.sampler import HPC_LEVEL

FAULTY_PLAN = FaultPlan(
    seed=3,
    faults=(
        FaultSpec(kind="dropout", probability=0.2),
        FaultSpec(kind="stall", tier="db", start=40, end=41),
    ),
)

#: the previous save lands at FIRST ticks, the interrupted one at SECOND
FIRST = 40
SECOND = 80


class SimulatedCrash(Exception):
    """Raised in place of one checkpoint file write."""


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def labeler(mini_pipeline):
    return mini_pipeline.labeler


@pytest.fixture(scope="module")
def records(mini_pipeline):
    records = mini_pipeline.test_run("ordering").records
    assert len(records) > SECOND
    return records


@pytest.fixture(scope="module")
def specs():
    return [
        SiteSpec(
            name=f"site{i}",
            seed=100 + i,
            plan=FAULTY_PLAN if i == 2 else None,
        )
        for i in range(4)
    ]


@pytest.fixture(scope="module")
def reference(meter, labeler, records, specs):
    """Uninterrupted run: decisions per tick, final gates and monitors."""
    service = CapacityService(meter, specs, labeler=labeler)
    per_tick = [service.push(record) for record in records[:SECOND]]
    service.fleet.sync()
    at_second = service_state(service)
    per_tick += [service.push(record) for record in records[SECOND:]]
    service.fleet.sync()
    return {
        "per_tick": per_tick,
        "at_second": at_second,
        "final": service_state(service),
    }


@pytest.fixture
def crash_switch(tmp_path, monkeypatch):
    """Fail the atomic rename of the file named in the switch file.

    Every checkpoint file lands through ``os.replace``, so failing it
    for one name is a crash just before that file write becomes
    visible.  Patched before any pool forks; the switch is a file, so
    worker processes see the name the test sets after the fork.  Every
    name written is appended to ``writes.log`` beside the switch.
    """
    switch = tmp_path / "crash-on"
    switch.write_text("")
    log = tmp_path / "writes.log"
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        name = os.path.basename(os.fspath(dst))
        if name == switch.read_text():
            raise SimulatedCrash(f"simulated crash before writing {name}")
        with open(log, "a") as handle:
            handle.write(name + "\n")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return switch


def logged_writes(switch):
    """Names written since the last call, shard files first."""
    log = switch.parent / "writes.log"
    names = log.read_text().split() if log.exists() else []
    log.write_text("")
    return sorted(set(names), key=lambda name: (name == "service.json", name))


def canon(state):
    """JSON canonical form: NaN-bearing states compare by their text."""
    return json.dumps(state, sort_keys=True)


def service_state(service):
    """(ticks, gate states, canonical monitor states) of either backend."""
    if isinstance(service, ShardedCapacityService):
        return (
            service.ticks,
            service.gate_states(),
            canon(service.monitor_states()),
        )
    return (
        service.ticks,
        {site.name: site.gate.state_dict() for site in service.sites},
        canon(
            {
                site.name: {
                    "state": site.monitor.state_dict(),
                    "tables": site.monitor.meter.coordinator.table_state(),
                }
                for site in service.sites
            }
        ),
    )


def site_signatures(decisions):
    per_site = {}
    for name, decision in decisions:
        per_site.setdefault(name, []).append(decision)
    return {
        name: decision_signature(site_decisions)
        for name, site_decisions in per_site.items()
    }


def shard_files(directory):
    return sorted(path.name for path in directory.glob("fleet.monitor.*"))


def named_files(directory):
    manifest = read_json_checkpoint(directory / "service.json")
    return sorted(shard["file"] for shard in manifest["shards"])


def assert_resumes_as_one_of(
    target, allowed, specs, labeler, records, reference
):
    """Resume ``target`` as one of the ``allowed`` states, then check
    that its replayed tail matches the uninterrupted run."""
    resumed = CapacityService.resume(target, specs, labeler=labeler)
    state = service_state(resumed)
    assert state in allowed, f"{target.name} resumed a torn checkpoint"
    tail = resumed.replay(records[resumed.ticks :])
    expected = [
        decision
        for decisions in reference["per_tick"][state[0] :]
        for decision in decisions
    ]
    assert site_signatures(tail) == site_signatures(expected)
    assert service_state(resumed) == reference["final"]


@pytest.mark.parametrize("workers", (0, 2))
def test_interrupted_save_resumes_previous_or_new(
    meter, labeler, records, specs, reference, crash_switch, tmp_path, workers
):
    if workers:
        service = ShardedCapacityService(
            meter, specs, workers=workers, labeler=labeler
        )
    else:
        service = CapacityService(meter, specs, labeler=labeler)
    try:
        service.replay(records[:FIRST])
        previous_dir = service.save(tmp_path / "previous")
        previous = service_state(service)
        service.replay(records[FIRST:SECOND])
        new = service_state(service)

        # an uninterrupted re-save names every file a save writes
        completed = tmp_path / "completed"
        shutil.copytree(previous_dir, completed)
        logged_writes(crash_switch)
        service.save(completed)
        writes = logged_writes(crash_switch)
        assert len(writes) == max(workers, 1) + 1
        assert_resumes_as_one_of(
            completed, [new], specs, labeler, records, reference
        )

        for k, name in enumerate(writes):
            target = tmp_path / f"crash-{k}"
            shutil.copytree(previous_dir, target)
            crash_switch.write_text(name)
            try:
                with pytest.raises((SimulatedCrash, WorkerError)):
                    service.save(target)
            finally:
                crash_switch.write_text("")
            assert_resumes_as_one_of(
                target, [previous, new], specs, labeler, records, reference
            )
        # the service survives its failed saves, and the next save into
        # each directory completes and drops the interrupted save's files
        for k in range(len(writes)):
            target = service.save(tmp_path / f"crash-{k}")
            assert shard_files(target) == named_files(target)
            manifest = read_json_checkpoint(target / "service.json")
            assert manifest["ticks"] == SECOND
        assert service_state(service) == new
    finally:
        if workers:
            service.close()


def test_resave_keeps_only_the_files_the_manifest_names(
    meter, labeler, records, specs, reference, tmp_path
):
    """A 4-worker checkpoint re-saved at 2 workers leaves 2 shard files.

    The checkpoint here uses the shard file names of earlier releases
    (``fleet.monitor.<i>.json``): the manifest, not the name, is what
    a resume follows, and a re-save removes the stale files.
    """
    target = tmp_path / "ck"
    with ShardedCapacityService(
        meter, specs, workers=4, labeler=labeler
    ) as service:
        service.replay(records[:FIRST])
        service.save(target)
    manifest = read_json_checkpoint(target / "service.json")
    for index, shard in enumerate(manifest["shards"]):
        legacy = f"fleet.monitor.{index}.json"
        os.rename(target / shard["file"], target / legacy)
        shard["file"] = legacy
    write_json_atomic(target / "service.json", manifest)
    assert len(shard_files(target)) == 4

    with ShardedCapacityService.resume(
        target, specs, workers=2, labeler=labeler
    ) as service:
        service.replay(records[FIRST:SECOND])
        service.save(target)
    assert shard_files(target) == named_files(target)
    assert len(named_files(target)) == 2
    assert not set(named_files(target)) & {
        f"fleet.monitor.{index}.json" for index in range(4)
    }
    assert read_json_checkpoint(target / "service.json")["ticks"] == SECOND
    assert_resumes_as_one_of(
        target, [reference["at_second"]], specs, labeler, records, reference
    )
