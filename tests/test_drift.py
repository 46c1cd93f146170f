"""Drift detection, background retraining and atomic meter hot-swap.

The contract under test is the PR's acceptance bar:

* the :class:`~repro.drift.detector.DriftDetector` is a deterministic,
  checkpointable function of the decision stream: seeded per-site
  thresholds, latch-until-swap semantics, post-swap cooldown, and a
  ``state_dict`` round-trip that triggers on exactly the same window as
  an uninterrupted run;
* a mid-campaign retrain-and-hot-swap is **bit-identical** to
  stop-retrain-restart (checkpoint, resume with the new meter) from the
  swap window onward — merged stream, gate states and monitor tables —
  at 0, 2 and 4 workers, including a swap racing a worker crash and its
  recovery;
* swaps land only at window boundaries: a mid-window stage defers to
  the boundary so no decision window mixes two meters' votes;
* checkpoint manifests carry ``meter_version`` / ``pending_swap`` /
  ``drift``, and manifests without them still load;
* warm retrains through the artifact cache rebuild nothing and return
  a payload identical to the cold build's;
* the audit pin for held-decision confidence decay: a quorum-failure
  streak re-emits the last real decision with geometrically decaying
  confidence, and a checkpoint taken mid-streak resumes the decayed
  trajectory exactly (no decay restart).
"""

import json

import pytest

from repro.control import CapacityService, SiteSpec
from repro.control.shard import ShardedCapacityService
from repro.core.capacity import CapacityMeter
from repro.drift import (
    BackgroundRetrainer,
    DriftConfig,
    DriftDetector,
    DriftRetrainController,
    MeterHandle,
    RetrainResult,
    RetrainSpec,
    StagedSwap,
    next_window_boundary,
    retrain_meter,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ProcessFaultPlan,
    ProcessFaultSpec,
    decision_signature,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults.campaign import fresh_monitor
from repro.faults.checkpoint import read_json_checkpoint
from repro.telemetry.sampler import HPC_LEVEL
from tests.conftest import MINI_WINDOW, make_decision


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def fresh_meter(mini_pipeline):
    """A second trained meter with a different decision function.

    Same level/tiers/window (the swap contract) but a naive-Bayes
    synopsis set, so post-swap decisions genuinely diverge from the
    old meter's — parity failures can't hide behind identical votes.
    """
    return mini_pipeline.meter(HPC_LEVEL, learner="naive")


@pytest.fixture(scope="module")
def labeler(mini_pipeline):
    return mini_pipeline.labeler


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


def make_specs(n=4):
    return [SiteSpec(name=f"site{i}", seed=100 + i) for i in range(n)]


def canon(state):
    return json.dumps(state, sort_keys=True)


def site_signatures(decisions):
    per_site = {}
    for name, decision in decisions:
        per_site.setdefault(name, []).append(decision)
    return {
        name: decision_signature(site_decisions)
        for name, site_decisions in per_site.items()
    }


# ----------------------------------------------------------------------
# window boundary arithmetic and the versioned handle
# ----------------------------------------------------------------------
class TestNextWindowBoundary:
    def test_on_boundary_is_identity(self):
        assert next_window_boundary(0, 10) == 0
        assert next_window_boundary(40, 10) == 40

    def test_mid_window_rounds_up(self):
        assert next_window_boundary(41, 10) == 50
        assert next_window_boundary(49, 10) == 50

    def test_degenerate_window(self):
        assert next_window_boundary(7, 0) == 7


class TestMeterHandle:
    def swap(self, version, effective=10):
        return StagedSwap(
            version=version, effective_tick=effective, payload={"v": version}
        )

    def test_stage_due_install_cycle(self):
        handle = MeterHandle("old")
        handle.stage(self.swap(2, effective=10))
        assert handle.due(9) is None
        due = handle.due(10)
        assert due is not None and due.version == 2
        handle.install("new", 2)
        assert handle.resolve() == "new"
        assert handle.version == 2
        assert handle.pending is None

    def test_staging_an_installed_version_is_a_noop(self):
        """Supervisors blindly re-stage their swap log after a crash
        recovery; re-installing an already-installed version would
        clobber online adaptation since the original install."""
        handle = MeterHandle("new", version=2)
        handle.stage(self.swap(2))
        assert handle.pending is None
        handle.stage(self.swap(1))
        assert handle.pending is None

    def test_later_stage_supersedes_earlier(self):
        handle = MeterHandle("old")
        handle.stage(self.swap(2))
        handle.stage(self.swap(3))
        assert handle.pending.version == 3
        handle.stage(self.swap(2))  # stale re-stage loses
        assert handle.pending.version == 3

    def test_next_version_counts_pending(self):
        handle = MeterHandle("old")
        assert handle.next_version() == 2
        handle.stage(self.swap(2))
        assert handle.next_version() == 3

    def test_install_clears_only_superseded_pending(self):
        handle = MeterHandle("old")
        handle.stage(self.swap(3, effective=20))
        handle.install("mid", 2)
        assert handle.pending is not None  # v3 still owed
        handle.install("new", 3)
        assert handle.pending is None


# ----------------------------------------------------------------------
# the detector
# ----------------------------------------------------------------------
def feed(detector, site, flags, start=0):
    """Fold a string of decisions; ``flags`` maps to disagreement."""
    import dataclasses

    verdicts = []
    for k, wrong in enumerate(flags):
        decision = make_decision(bool(wrong), index=start + k)
        if wrong:
            # prediction says OVERLOAD, truth says underload
            decision = dataclasses.replace(decision, truth=0)
        verdicts.append(detector.observe(site, decision))
    return verdicts


FAST = DriftConfig(
    horizon=8, min_windows=4, min_truth=2, agreement_floor=0.6, cooldown=6
)


class TestDriftDetector:
    def test_agreement_trigger_latches(self):
        detector = DriftDetector(FAST)
        verdicts = feed(detector, "a", [0, 0, 1, 1, 1, 1])
        assert not verdicts[2].drifted  # min_windows not met yet
        final = verdicts[-1]
        assert final.drifted and final.reason == "agreement"
        assert detector.triggered
        assert detector.drifted_sites() == ("a",)
        # latched: a clean window does not un-trigger
        feed(detector, "a", [0], start=6)
        assert detector.triggered

    def test_swap_clears_and_cooldown_holds_fire(self):
        detector = DriftDetector(FAST)
        feed(detector, "a", [0, 0, 1, 1, 1, 1])
        detector.notify_swap()
        assert not detector.triggered
        # cooldown=6 (decremented per window before evaluation): the
        # first 5 post-swap windows cannot re-trigger even though they
        # all disagree; the 6th is fair game again
        verdicts = feed(detector, "a", [1] * 5, start=6)
        assert not any(v.drifted for v in verdicts)
        assert all(v.cooldown > 0 for v in verdicts)
        verdicts = feed(detector, "a", [1], start=11)
        assert verdicts[-1].drifted  # cooldown over, horizon refilled

    def test_held_windows_carry_no_agreement_signal(self):
        detector = DriftDetector(FAST)
        for k in range(8):
            detector.observe("a", make_decision(True, held=True, index=k))
        verdict = detector.verdict("a")
        assert verdict.agreement is None  # no truthful windows at all
        assert not verdict.drifted or verdict.reason != "agreement"

    def test_confidence_trend_trigger(self):
        config = DriftConfig(
            horizon=8,
            min_windows=8,
            min_truth=99,  # force the agreement signal out of play
            confidence_drop=0.25,
            cooldown=6,
        )
        detector = DriftDetector(config)
        for k in range(4):
            detector.observe("a", make_decision(False, index=k))
        for k in range(4, 8):
            # held decisions have telemetry confidence 0.0: recent-half
            # mean collapses relative to the older half
            detector.observe("a", make_decision(False, held=True, index=k))
        verdict = detector.verdict("a")
        assert verdict.drifted and verdict.reason == "confidence"
        assert verdict.confidence_trend < -0.25

    def test_sites_are_independent(self):
        detector = DriftDetector(FAST)
        feed(detector, "a", [1, 1, 1, 1])
        feed(detector, "b", [0, 0, 0, 0])
        assert detector.drifted_sites() == ("a",)
        assert not detector.verdict("b").drifted

    def test_thresholds_seeded_and_per_site(self):
        first = DriftDetector(FAST)._tracker("site0")._floors
        again = DriftDetector(FAST)._tracker("site0")._floors
        other = DriftDetector(FAST)._tracker("site1")._floors
        reseeded = (
            DriftDetector(
                DriftConfig(
                    horizon=8,
                    min_windows=4,
                    min_truth=2,
                    agreement_floor=0.6,
                    cooldown=6,
                    seed=99,
                )
            )
            ._tracker("site0")
            ._floors
        )
        assert first == again  # deterministic
        assert first != other  # jittered per site
        assert first != reseeded  # and per seed
        # jitter never moves a threshold by more than jitter/2
        assert abs(first[0] - FAST.agreement_floor) <= FAST.jitter / 2

    def test_state_round_trip_triggers_on_the_same_window(self):
        flags = [0, 0, 1, 0, 1, 1, 1, 0, 1, 1]
        straight = DriftDetector(FAST)
        reference = feed(straight, "a", flags)

        head = DriftDetector(FAST)
        feed(head, "a", flags[:4])
        state = json.loads(json.dumps(head.state_dict()))  # JSON-clean
        tail = DriftDetector(FAST)
        tail.load_state(state)
        resumed = feed(tail, "a", flags[4:], start=4)
        assert [v.drifted for v in resumed] == [
            v.drifted for v in reference[4:]
        ]
        assert tail.verdict("a").triggered_at == straight.verdict(
            "a"
        ).triggered_at
        assert canon(tail.state_dict()) == canon(straight.state_dict())

    def test_state_format_guard(self):
        detector = DriftDetector(FAST)
        with pytest.raises(ValueError, match="drift state format"):
            detector.load_state({"format": "bogus/9", "sites": {}})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(horizon=1)
        with pytest.raises(ValueError):
            DriftConfig(min_windows=1)


# ----------------------------------------------------------------------
# retraining through the pipeline + cache
# ----------------------------------------------------------------------
class TestRetrain:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("retrain-cache"))

    @pytest.fixture(scope="class")
    def spec(self, cache_dir):
        from tests.conftest import MINI_SCALE

        return RetrainSpec(
            level=HPC_LEVEL,
            scale=MINI_SCALE,
            window=MINI_WINDOW,
            cache_dir=cache_dir,
        )

    @pytest.fixture(scope="class")
    def cold(self, spec):
        return retrain_meter(spec)

    def test_cold_retrain_builds_and_reports(self, cold):
        assert not cold.warm
        assert sum(cold.builds.values()) > 0
        assert cold.duration_s > 0.0

    def test_warm_retrain_rebuilds_nothing(self, spec, cold):
        warm = retrain_meter(spec)
        assert warm.warm
        assert sum(warm.builds.values()) == 0
        # and the cache round-trip is exact: same meter payload
        assert canon(warm.payload) == canon(cold.payload)

    def test_payload_is_swappable(self, cold, meter, labeler):
        rebuilt = CapacityMeter.from_payload(cold.payload, labeler=labeler)
        assert rebuilt.is_trained
        assert rebuilt.level == meter.level
        assert rebuilt.window == meter.window
        assert tuple(rebuilt.tiers) == tuple(meter.tiers)

    def test_background_retrainer_lands_warm(self, spec, cold):
        retrainer = BackgroundRetrainer()
        try:
            assert not retrainer.pending
            retrainer.start(spec)
            assert retrainer.pending
            with pytest.raises(RuntimeError, match="already in flight"):
                retrainer.start(spec)
            result = retrainer.wait(timeout=300.0)
            assert not retrainer.pending
            assert result.warm
            assert canon(result.payload) == canon(cold.payload)
        finally:
            retrainer.close()

    def test_wait_without_start_raises(self):
        retrainer = BackgroundRetrainer()
        try:
            assert retrainer.poll() is None
            with pytest.raises(RuntimeError, match="no retrain"):
                retrainer.wait(0.1)
        finally:
            retrainer.close()


# ----------------------------------------------------------------------
# the tentpole: hot-swap == stop-retrain-restart, at any worker count
# ----------------------------------------------------------------------
CUT = 4 * MINI_WINDOW  # a shared window boundary for every site


@pytest.fixture(scope="module")
def swap_reference(meter, fresh_meter, labeler, records, tmp_path_factory):
    """Stop-retrain-restart: checkpoint at the boundary, resume with
    the retrained meter, finish the campaign.  The bit-identity target
    for every live-swap run."""
    specs = make_specs()
    target = tmp_path_factory.mktemp("swap-ref") / "ck"
    service = CapacityService(meter, specs, labeler=labeler)
    head = service.replay(records[:CUT])
    service.save(target)
    resumed = CapacityService.resume(
        target, specs, labeler=labeler, meter=fresh_meter
    )
    assert resumed.meter_version == 2
    tail = resumed.replay(records[CUT:])
    return {
        "specs": specs,
        "decisions": head + tail,
        "signatures": site_signatures(head + tail),
        "gates": {s.name: s.gate.state_dict() for s in resumed.sites},
        "monitors": {
            s.name: {
                "state": s.monitor.state_dict(),
                "tables": s.monitor.meter.coordinator.table_state(),
            }
            for s in resumed.sites
        },
    }


class TestHotSwapParity:
    def _check(self, decisions, signatures, gates, monitors, reference):
        assert [n for n, _ in decisions] == [
            n for n, _ in reference["decisions"]
        ]
        assert signatures == reference["signatures"]
        assert gates == reference["gates"]
        assert canon(monitors) == canon(reference["monitors"])

    def test_single_process_live_swap(
        self, meter, fresh_meter, labeler, records, swap_reference
    ):
        service = CapacityService(
            meter, swap_reference["specs"], labeler=labeler
        )
        head = service.replay(records[:CUT])
        swap = service.swap_meter(fresh_meter)
        # staged at a boundary: effective immediately, version bumped
        assert swap.version == 2
        assert swap.effective_tick == CUT
        assert service.meter_version == 2
        tail = service.replay(records[CUT:])
        self._check(
            head + tail,
            site_signatures(head + tail),
            {s.name: s.gate.state_dict() for s in service.sites},
            {
                s.name: {
                    "state": s.monitor.state_dict(),
                    "tables": s.monitor.meter.coordinator.table_state(),
                }
                for s in service.sites
            },
            swap_reference,
        )

    @pytest.mark.parametrize("workers", (2, 4))
    def test_sharded_live_swap(
        self, meter, fresh_meter, labeler, records, swap_reference, workers
    ):
        with ShardedCapacityService(
            meter,
            swap_reference["specs"],
            workers=workers,
            labeler=labeler,
            chunk_ticks=13,
        ) as service:
            head = service.replay(records[:CUT])
            swap = service.swap_meter(fresh_meter)
            assert swap.version == 2
            assert swap.effective_tick == CUT
            tail = service.replay(records[CUT:])
            assert service.meter_version == 2
            self._check(
                head + tail,
                site_signatures(head + tail),
                service.gate_states(),
                service.monitor_states(),
                swap_reference,
            )

    def test_mid_window_stage_defers_to_the_boundary(
        self, meter, fresh_meter, labeler, records, swap_reference
    ):
        """A swap staged mid-window must not touch the window in
        flight: the boundary window decides with the old meter and only
        the next one votes through the new tables."""
        specs = swap_reference["specs"]
        mid = CUT - MINI_WINDOW // 2
        service = CapacityService(meter, specs, labeler=labeler)
        head = service.replay(records[:mid])
        swap = service.swap_meter(fresh_meter)
        assert swap.effective_tick == CUT
        assert service.meter_version == 1  # not yet installed
        tail = service.replay(records[mid:])
        assert service.meter_version == 2
        assert site_signatures(head + tail) == swap_reference["signatures"]

    @pytest.mark.parametrize("workers", (0, 2))
    def test_mid_window_stage_parity_sharded(
        self, meter, fresh_meter, labeler, records, swap_reference, workers
    ):
        specs = swap_reference["specs"]
        mid = CUT - 3
        if workers:
            service = ShardedCapacityService(
                meter, specs, workers=workers, labeler=labeler, chunk_ticks=7
            )
        else:
            service = CapacityService(meter, specs, labeler=labeler)
        try:
            head = service.replay(records[:mid])
            service.swap_meter(fresh_meter)
            tail = service.replay(records[mid:])
            assert service.meter_version == 2
            assert site_signatures(head + tail) == (
                swap_reference["signatures"]
            )
        finally:
            if workers:
                service.close()

    def test_swap_rejects_an_untrained_meter(self, meter, labeler, records):
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        service.replay(records[:MINI_WINDOW])
        untrained = CapacityMeter(
            level=meter.level, window=meter.window, labeler=labeler
        )
        with pytest.raises(RuntimeError, match="untrained"):
            service.swap_meter(untrained)
        assert service.meter_version == 1


# ----------------------------------------------------------------------
# the swap racing process chaos
# ----------------------------------------------------------------------
class TestSwapDuringChaos:
    @pytest.mark.parametrize("kill_tick", (CUT - 2, CUT + 3))
    def test_swap_survives_worker_kill_bit_identically(
        self,
        meter,
        fresh_meter,
        labeler,
        records,
        swap_reference,
        kill_tick,
    ):
        """A worker killed just before/after the install boundary is
        respawned, re-staged from the swap log, and the merged stream
        still equals the uninterrupted stop-retrain-restart run."""
        plan = ProcessFaultPlan(
            faults=(
                ProcessFaultSpec(kind="kill", tick=kill_tick, worker=0),
            ),
        )
        with ShardedCapacityService(
            meter,
            swap_reference["specs"],
            workers=2,
            labeler=labeler,
            chunk_ticks=7,
            supervise_ticks=15,
            process_faults=plan,
        ) as service:
            head = service.replay(records[:CUT])
            service.swap_meter(fresh_meter)
            tail = service.replay(records[CUT:])
            stats = service.supervisor_stats()
            assert stats["faults_fired"] == 1
            assert sum(stats["respawns"]) >= 1
            assert stats["lost"] == []
            assert service.meter_version == 2
            assert stats["meter_version"] == 2
            assert site_signatures(head + tail) == (
                swap_reference["signatures"]
            )
            assert service.gate_states() == swap_reference["gates"]
            assert canon(service.monitor_states()) == canon(
                swap_reference["monitors"]
            )


# ----------------------------------------------------------------------
# checkpoint manifests: meter_version / pending_swap / drift
# ----------------------------------------------------------------------
class TestSwapCheckpointing:
    def test_manifest_records_version_and_pending_swap(
        self, meter, fresh_meter, labeler, records, tmp_path
    ):
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        service.replay(records[: CUT - 3])  # mid-window
        swap = service.swap_meter(fresh_meter)
        service.save(tmp_path / "ck")
        manifest = read_json_checkpoint(tmp_path / "ck" / "service.json")
        assert manifest["meter_version"] == 1  # not installed yet
        pending = manifest["pending_swap"]
        assert pending["version"] == swap.version
        assert pending["effective_tick"] == CUT

    def test_pending_swap_installs_after_resume(
        self, meter, fresh_meter, labeler, records, tmp_path, swap_reference
    ):
        specs = swap_reference["specs"]
        service = CapacityService(meter, specs, labeler=labeler)
        head = service.replay(records[: CUT - 3])
        service.swap_meter(fresh_meter)
        service.save(tmp_path / "ck")
        resumed = CapacityService.resume(
            tmp_path / "ck", specs, labeler=labeler
        )
        assert resumed.meter_version == 1
        tail = resumed.replay(records[CUT - 3 :])
        assert resumed.meter_version == 2
        assert site_signatures(head + tail) == swap_reference["signatures"]

    def test_installed_version_round_trips_sharded_and_single(
        self, meter, fresh_meter, labeler, records, tmp_path, swap_reference
    ):
        specs = swap_reference["specs"]
        with ShardedCapacityService(
            meter, specs, workers=2, labeler=labeler
        ) as service:
            head = service.replay(records[:CUT])
            service.swap_meter(fresh_meter)
            mid = service.replay(records[CUT : CUT + MINI_WINDOW])
            assert service.meter_version == 2
            service.save(tmp_path / "ck2")
        manifest = read_json_checkpoint(tmp_path / "ck2" / "service.json")
        assert manifest["meter_version"] == 2
        assert "pending_swap" not in manifest
        # the sharded checkpoint resumes single-process with the
        # retrained meter already installed
        resumed = CapacityService.resume(
            tmp_path / "ck2", specs, labeler=labeler
        )
        assert resumed.meter_version == 2
        tail = resumed.replay(records[CUT + MINI_WINDOW :])
        assert site_signatures(head + mid + tail) == (
            swap_reference["signatures"]
        )

    def test_v1_manifest_without_swap_keys_still_loads(
        self, meter, labeler, records, tmp_path
    ):
        from repro.faults.checkpoint import write_json_atomic

        specs = make_specs(2)
        service = CapacityService(meter, specs, labeler=labeler)
        service.replay(records[:CUT])
        service.save(tmp_path / "ck")
        path = tmp_path / "ck" / "service.json"
        manifest = read_json_checkpoint(path)
        for key in ("meter_version", "pending_swap", "drift"):
            manifest.pop(key, None)
        write_json_atomic(path, manifest)
        resumed = CapacityService.resume(
            tmp_path / "ck", specs, labeler=labeler
        )
        assert resumed.meter_version == 1
        assert resumed.ticks == CUT


# ----------------------------------------------------------------------
# drift on the service decision path, and the retrain controller
# ----------------------------------------------------------------------
#: a floor above 1.0 (jitter is ±0.01) trips the agreement trigger as
#: soon as min_windows/min_truth fill — no stale meter required, which
#: keeps the service-level loop tests fast and deterministic
ALWAYS_TRIGGER = DriftConfig(
    horizon=8, min_windows=4, min_truth=2, agreement_floor=1.05, cooldown=4
)


class TestServiceDriftPath:
    def test_detector_folds_the_decision_stream(
        self, meter, labeler, records
    ):
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        service.enable_drift(ALWAYS_TRIGGER)
        service.replay(records[:CUT])
        verdicts = service.drift.verdicts()
        assert set(verdicts) == {"site0", "site1"}
        assert all(v.windows == 4 for v in verdicts.values())
        assert service.drift.triggered

    def test_snapshots_surface_drift_and_version(
        self, meter, fresh_meter, labeler, records
    ):
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        service.enable_snapshots()
        service.enable_drift(ALWAYS_TRIGGER)
        service.replay(records[:CUT])
        snapshot = service.snapshot
        assert snapshot.meter_version == 1
        assert snapshot.drifted_sites == ("site0", "site1")
        assert snapshot.sites["site0"].drifted
        service.swap_meter(fresh_meter)
        service.replay(records[CUT : CUT + MINI_WINDOW])
        snapshot = service.snapshot
        assert snapshot.meter_version == 2
        assert snapshot.drifted_sites == ()  # cleared by the swap

    def test_sharded_detector_matches_single_process(
        self, meter, labeler, records
    ):
        config = DriftConfig(
            horizon=8, min_windows=4, min_truth=2, cooldown=4
        )
        single = CapacityService(meter, make_specs(4), labeler=labeler)
        single.enable_drift(config)
        single.replay(records[:CUT])
        with ShardedCapacityService(
            meter, make_specs(4), workers=2, labeler=labeler
        ) as sharded:
            sharded.enable_drift(config)
            sharded.replay(records[:CUT])
            assert canon(sharded.drift.state_dict()) == canon(
                single.drift.state_dict()
            )

    def test_drift_state_rides_the_checkpoint(
        self, meter, labeler, records, tmp_path
    ):
        specs = make_specs(2)
        straight = CapacityService(meter, specs, labeler=labeler)
        straight.enable_drift(ALWAYS_TRIGGER)
        straight.replay(records[: 2 * CUT])

        head = CapacityService(meter, specs, labeler=labeler)
        head.enable_drift(ALWAYS_TRIGGER)
        head.replay(records[:CUT])
        head.save(tmp_path / "ck")
        manifest = read_json_checkpoint(tmp_path / "ck" / "service.json")
        assert manifest["drift"]["format"].startswith("repro.drift-state/")
        resumed = CapacityService.resume(
            tmp_path / "ck", specs, labeler=labeler
        )
        resumed.enable_drift(ALWAYS_TRIGGER)
        resumed.replay(records[CUT : 2 * CUT])
        assert canon(resumed.drift.state_dict()) == canon(
            straight.drift.state_dict()
        )

    def test_controller_closes_the_loop(
        self, meter, fresh_meter, labeler, records, monkeypatch
    ):
        """Trigger → (stubbed) retrain → hot-swap, with the event log
        and the post-swap cooldown keeping the loop from thrashing."""
        payload = fresh_meter.to_payload()

        def fake_retrain(spec):
            return RetrainResult(
                spec=spec, payload=payload, builds={}, duration_s=0.01
            )

        monkeypatch.setattr(
            "repro.drift.retrain.retrain_meter", fake_retrain
        )
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        service.enable_drift(ALWAYS_TRIGGER)
        spec = RetrainSpec(level=HPC_LEVEL, window=MINI_WINDOW)
        controller = DriftRetrainController(service, spec)
        swapped_at = None
        for start in range(0, 2 * CUT, MINI_WINDOW):
            service.replay(records[start : start + MINI_WINDOW])
            swap = controller.step()
            if swap is not None and swapped_at is None:
                swapped_at = service.ticks
        assert controller.swaps
        assert service.meter_version >= 2
        assert swapped_at == CUT  # min_windows=4 filled at the 4th window
        kinds = [kind for kind, _, _ in controller.events]
        assert kinds[: 2 + 2] == ["drift", "drift", "retrain", "swap"]
        drift_events = [e for e in controller.events if e[0] == "drift"]
        assert {detail.split()[0] for _, _, detail in drift_events} >= {
            "site0",
            "site1",
        }

    def test_controller_requires_drift_enabled(self, meter, labeler):
        service = CapacityService(meter, make_specs(2), labeler=labeler)
        with pytest.raises(ValueError, match="enable_drift"):
            DriftRetrainController(
                service, RetrainSpec(level=HPC_LEVEL, window=MINI_WINDOW)
            )


# ----------------------------------------------------------------------
# audit pin: held-decision confidence decay (satellite)
# ----------------------------------------------------------------------
BLACKOUT = FaultPlan(
    seed=3,
    faults=(FaultSpec(kind="stall", start=100, end=101, rearmable=False),),
)


def run_blackout(meter, labeler, records, *, cut=None, restore_from=None):
    """Replay the permanent-stall stream; optionally stop at ``cut`` or
    start from a restored (monitor state, injector state) pair."""
    if restore_from is None:
        monitor = fresh_monitor(meter, labeler)
        injector = FaultInjector(BLACKOUT)
    else:
        monitor, injector = restore_from
    injector.downstream = monitor.push
    for record in records if cut is None else records[:cut]:
        injector.push(record)
    return monitor, injector


class TestHeldDecayRegression:
    @pytest.fixture(scope="class")
    def blackout(self, meter, labeler, records):
        monitor, injector = run_blackout(meter, labeler, records)
        return list(monitor.decisions)

    def test_decay_trajectory_is_pinned(self, blackout):
        """hc decays geometrically from the last *real* decision:
        held_k.hc == last_real.hc * 0.5**(k+1), not a re-decay of the
        previous held value's copy — the audited invariant."""
        real = [d for d in blackout if not d.held]
        held = blackout[len(real) :]
        assert real and len(held) >= 3
        assert all(d.held for d in held)
        anchor = real[-1].prediction
        for k, decision in enumerate(held):
            prediction = decision.prediction
            assert prediction.hc == pytest.approx(
                anchor.hc * 0.5 ** (k + 1)
            )
            assert decision.confidence == 0.0
            assert prediction.state == anchor.state
            assert prediction.bottleneck == anchor.bottleneck
            assert not prediction.confident
            assert prediction.degraded
            assert prediction.synopsis_votes == ()
            assert decision.index == real[-1].index + 1 + k

    def test_checkpoint_mid_streak_resumes_the_decay(
        self, meter, labeler, records, blackout, tmp_path
    ):
        """A monitor checkpointed two windows into a held streak must
        continue hc at 0.5**(k+1) of the original anchor — restarting
        the decay (or re-anchoring on the held value) would inflate
        confidence during a blackout."""
        real_count = len([d for d in blackout if not d.held])
        # cut two held windows into the streak, mid-window for spice
        cut = (real_count + 2) * MINI_WINDOW + 3
        assert cut < len(records)
        head_monitor, head_injector = run_blackout(
            meter, labeler, records, cut=cut
        )
        assert head_monitor.decisions[-1].held
        path = tmp_path / "midstreak.ckpt"
        save_checkpoint(head_monitor, path)
        injector_state = json.loads(
            json.dumps(head_injector.state_dict())
        )

        restored = load_checkpoint(path, labeler=labeler)
        injector = FaultInjector(BLACKOUT)
        injector.load_state(injector_state)
        tail_monitor, _ = run_blackout(
            meter,
            labeler,
            records[cut:],
            restore_from=(restored, injector),
        )
        tail = list(tail_monitor.decisions)
        reference_tail = blackout[-len(tail) :]
        assert decision_signature(tail) == decision_signature(
            reference_tail
        )
        for resumed, reference in zip(tail, reference_tail):
            assert resumed.prediction.hc == pytest.approx(
                reference.prediction.hc
            )
