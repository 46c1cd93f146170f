"""Tests for the structure-of-arrays fleet backend (PR 6 tentpole).

The hard constraint: with ``use_fleet=True`` (the default) every
decision, counter, coordinator table and gate state must be bit-for-bit
identical to the per-site path (``use_fleet=False, batch_votes=False``)
over clean, degraded and mixed streams — pinned here the same way
``batch_votes`` parity is pinned in ``tests/test_service.py``.

The satellite fixes ride along:

* ``resume()`` raises on checkpointed sites missing from the supplied
  spec list (``allow_subset=True`` is the escape hatch);
* ``SiteSpec.seed`` spawns independent substreams for the gate RNG and
  the sampler noise instead of feeding one integer to both;
* fault injectors and watchdogs checkpoint their run-local state, so a
  mid-campaign save/resume replays the *rest* of the fault plan, not
  the whole plan from tick zero.
"""

import json

import numpy as np
import pytest

from repro.control import CapacityService, FleetState, SiteSpec
from repro.faults import (
    FaultPlan,
    FaultSpec,
    decision_signature,
    fresh_monitor,
)
from repro.faults.checkpoint import load_fleet_checkpoint
from repro.telemetry.sampler import HPC_LEVEL

#: dropout plus a mid-stream database stall — the canonical degraded
#: scenario, identical to tests/test_service.py
FAULTY_PLAN = FaultPlan(
    seed=3,
    faults=(
        FaultSpec(kind="dropout", probability=0.2),
        FaultSpec(kind="stall", tier="db", start=40, end=41),
    ),
)


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


def site_signature(site_decisions, name):
    return decision_signature([d for n, d in site_decisions if n == name])


def canon(state):
    """JSON-canonical form: NaN-bearing ring buffers compare textually
    (``nan == nan`` is False, but the bits are what must match)."""
    return json.dumps(state, sort_keys=True)


def specs_for(kind):
    if kind == "clean":
        return [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
    if kind == "degraded":
        return [
            SiteSpec(name="a", seed=1, plan=FAULTY_PLAN),
            SiteSpec(name="b", seed=2, plan=FAULTY_PLAN),
        ]
    return [
        SiteSpec(name="clean", seed=1),
        SiteSpec(name="faulty", seed=2, plan=FAULTY_PLAN),
    ]


class TestFleetParity:
    @pytest.mark.parametrize("stream", ["clean", "degraded", "mixed"])
    @pytest.mark.parametrize("adapt", [False, True])
    def test_fleet_bit_identical_to_per_site(
        self, meter, records, stream, adapt
    ):
        """Every decision, counter, table and gate must match the
        per-site loop exactly — clean windows decide vectorized,
        degraded windows drop to the quorum path on the same memory."""
        specs = specs_for(stream)
        fleet = CapacityService(meter, specs, adapt=adapt, use_fleet=True)
        scalar = CapacityService(
            meter, specs, adapt=adapt, use_fleet=False, batch_votes=False
        )
        assert fleet.fleet is not None
        assert scalar.fleet is None
        fleet_decisions = fleet.replay(records)
        scalar_decisions = scalar.replay(records)
        assert len(fleet_decisions) == len(scalar_decisions) > 0
        for spec in specs:
            assert site_signature(
                fleet_decisions, spec.name
            ) == site_signature(scalar_decisions, spec.name)
            a = fleet.site(spec.name)
            b = scalar.site(spec.name)
            # bit-identity of the full run-local state, not just the
            # decision fingerprint
            assert canon(a.monitor.state_dict()) == canon(
                b.monitor.state_dict()
            )
            assert (
                a.monitor.meter.coordinator.table_state()
                == b.monitor.meter.coordinator.table_state()
            )
            assert a.gate.state_dict() == b.gate.state_dict()

    def test_fleet_state_shares_memory_with_sites(self, meter, records):
        """The per-site coordinators must hold live views of the
        stacked arrays, so either path writes the other's state."""
        service = CapacityService(meter, specs_for("clean"))
        fleet = service.fleet
        for site in service.sites:
            coordinator = site.monitor.meter.coordinator
            assert coordinator._lht.base is fleet.lht
            assert coordinator._gpt.base is fleet.gpt
            assert coordinator._bpt.base is fleet.bpt
            assert coordinator._history.base is fleet.history
        service.replay(records)
        for site in service.sites:
            coordinator = site.monitor.meter.coordinator
            assert np.shares_memory(coordinator._lht, fleet.lht)

    def test_heterogeneous_adapt_rejected(self, meter):
        monitors = [
            fresh_monitor(meter, meter.labeler, adapt=False),
            fresh_monitor(meter, meter.labeler, adapt=True),
        ]
        with pytest.raises(ValueError, match="adapt"):
            FleetState(monitors)

    def test_needs_at_least_one_monitor(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetState([])


class TestSeedSubstreams:
    def test_gate_and_sampler_streams_are_independent(self):
        """The old behaviour fed ``seed`` to both the gate RNG and the
        sampler noise; the substreams must now differ from that and
        from each other."""
        spec = SiteSpec(name="s", seed=7)
        assert spec.sampler_seed != spec.seed
        legacy = np.random.default_rng(spec.seed).random(8)
        gate_draws = spec.make_gate()._rng.random(8)
        assert not np.allclose(legacy, gate_draws)
        # and the sampler's integer seed is not the gate stream's seed
        gate_stream, sampler_seed = spec.seed_streams()
        assert int(gate_stream.generate_state(1)[0]) != sampler_seed

    def test_substreams_are_deterministic(self):
        a = SiteSpec(name="x", seed=11)
        b = SiteSpec(name="y", seed=11)
        assert a.sampler_seed == b.sampler_seed
        assert np.array_equal(
            a.make_gate()._rng.random(4), b.make_gate()._rng.random(4)
        )
        assert SiteSpec(name="z", seed=12).sampler_seed != a.sampler_seed


class TestResumeOrphans:
    def test_orphaned_sites_raise_by_default(self, meter, records, tmp_path):
        specs = [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
        service = CapacityService(meter, specs)
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match=r"\['b'\]"):
            CapacityService.resume(target, specs[:1], labeler=meter.labeler)

    def test_allow_subset_is_the_escape_hatch(
        self, meter, records, tmp_path
    ):
        specs = [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)]
        service = CapacityService(meter, specs)
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        resumed = CapacityService.resume(
            target, specs[:1], labeler=meter.labeler, allow_subset=True
        )
        assert [site.name for site in resumed.sites] == ["a"]
        resumed.replay(records[30:60])
        assert resumed.site("a").monitor.counters.windows > 0

    def test_unknown_spec_still_reported_first(self, meter, records, tmp_path):
        """A spec with no checkpoint state keeps its original error
        even though it also implies orphans."""
        service = CapacityService(meter, [SiteSpec(name="a")])
        service.replay(records[:30])
        target = service.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="no gate state"):
            CapacityService.resume(
                target, [SiteSpec(name="other")], labeler=meter.labeler
            )


class TestMidCampaignResume:
    def test_faulty_site_resumes_bit_identically(
        self, meter, records, tmp_path
    ):
        """Pre-fix, injectors replayed their plans from tick zero on
        resume (the stall re-fired, the dropout RNG restarted).  With
        injector + watchdog state in the v2 manifest the resumed
        faulted stream continues exactly where the saved one stopped."""
        half = len(records) // 2
        # a stall that fires *after* the checkpoint makes plan-cursor
        # restoration observable, on top of the mid-head stall
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="dropout", probability=0.2),
                FaultSpec(kind="stall", tier="db", start=40, end=41),
                FaultSpec(
                    kind="stall", tier="app", start=half + 7, end=half + 8
                ),
            ),
        )
        specs = [
            SiteSpec(name="clean", seed=1),
            SiteSpec(name="faulty", seed=2, plan=plan),
        ]
        reference = CapacityService(meter, specs)
        expected = reference.replay(records)

        first = CapacityService(meter, specs)
        head = first.replay(records[:half])
        target = first.save(tmp_path / "ckpt")

        resumed = CapacityService.resume(target, specs, labeler=meter.labeler)
        tail = resumed.replay(records[half:])
        combined = head + tail
        for name in ("clean", "faulty"):
            assert site_signature(combined, name) == site_signature(
                expected, name
            )
            assert (
                resumed.site(name).gate.state_dict()
                == reference.site(name).gate.state_dict()
            )
            assert canon(
                resumed.site(name).monitor.state_dict()
            ) == canon(reference.site(name).monitor.state_dict())
        assert (
            resumed.site("faulty").injector.counters.as_dict()
            == reference.site("faulty").injector.counters.as_dict()
        )
        assert (
            resumed.site("faulty").watchdog.state_dict()
            == reference.site("faulty").watchdog.state_dict()
        )


class TestCheckpointLayouts:
    def test_fleet_layout_stores_one_monitor_file(
        self, meter, records, tmp_path
    ):
        """Both backends save the one layout: a single shard file that
        restores every site's monitor state."""
        specs = specs_for("mixed")
        for save_fleet in (True, False):
            service = CapacityService(meter, specs, use_fleet=save_fleet)
            service.replay(records[:40])
            target = service.save(tmp_path / f"ckpt-{int(save_fleet)}")
            manifest = json.loads((target / "service.json").read_text())
            assert manifest["layout"] == "sharded"
            [shard] = manifest["shards"]
            assert shard["sites"] == ["clean", "faulty"]
            assert sorted(p.name for p in target.iterdir()) == sorted(
                [shard["file"], "service.json"]
            )
            restored = dict(
                load_fleet_checkpoint(
                    target / shard["file"], labeler=meter.labeler
                )
            )
            assert set(restored) == {"clean", "faulty"}
            for spec in specs:
                assert canon(restored[spec.name].state_dict()) == canon(
                    service.site(spec.name).monitor.state_dict()
                )

    def test_layouts_cross_resume(self, meter, records, tmp_path):
        """A save from either backend resumes into either backend,
        bit-identically."""
        specs = specs_for("mixed")
        half = len(records) // 2
        reference = CapacityService(meter, specs, use_fleet=True)
        expected = reference.replay(records)

        for save_fleet in (True, False):
            first = CapacityService(meter, specs, use_fleet=save_fleet)
            head = first.replay(records[:half])
            target = first.save(tmp_path / f"ckpt-{int(save_fleet)}")
            for resume_fleet in (True, False):
                resumed = CapacityService.resume(
                    target,
                    specs,
                    labeler=meter.labeler,
                    use_fleet=resume_fleet,
                )
                assert (resumed.fleet is not None) == resume_fleet
                combined = head + resumed.replay(records[half:])
                for spec in specs:
                    assert site_signature(
                        combined, spec.name
                    ) == site_signature(expected, spec.name)

    def test_retired_layouts_are_rejected(self, meter, records, tmp_path):
        """Per-site, fleet and format-v1 manifests no longer resume: the
        error names the layout the manifest holds."""
        specs = [SiteSpec(name="a", seed=1)]
        service = CapacityService(meter, specs)
        service.replay(records[:40])
        target = service.save(tmp_path / "ckpt")
        manifest = json.loads((target / "service.json").read_text())
        v1 = {
            key: value
            for key, value in manifest.items()
            if key not in ("layout", "shards", "injectors", "watchdogs")
        }
        v1["format"] = "repro.service-checkpoint/1"
        for retired, found in (
            ({**manifest, "layout": "per-site"}, "'per-site' layout"),
            ({**manifest, "layout": "fleet"}, "'fleet' layout"),
            (v1, "service-checkpoint/1 checkpoint in the 'per-site' layout"),
        ):
            (target / "service.json").write_text(json.dumps(retired))
            with pytest.raises(ValueError, match=found):
                CapacityService.resume(target, specs, labeler=meter.labeler)
