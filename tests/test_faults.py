"""Fault-injection harness and degraded-mode monitoring.

Covers the robustness acceptance criteria:

* fixed-seed fault campaigns are fully deterministic (two runs produce
  identical decision sequences and counters);
* a zero-fault plan leaves the streaming path bit-for-bit identical to
  the clean replay (which itself matches the batch pipeline — see
  ``test_monitor.TestOfflineEquivalence``);
* under a 20 % counter-dropout plan the monitor still emits a decision
  for every window, with degraded windows flagged;
* a monitor killed mid-stream and restored from its checkpoint
  continues with decisions bit-identical to an uninterrupted run;
* the watchdog detects stalled tiers and re-arms them with bounded
  exponential backoff;
* retries, imputation, abstention, quorum fallback, and the faults CLI.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cli import main
from repro.core.monitor import OnlineCapacityMonitor
from repro.faults import (
    CampaignResult,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SamplerWatchdog,
    decision_signature,
    load_checkpoint,
    retry_io,
    run_campaign,
    save_checkpoint,
)
from repro.telemetry.sampler import HPC_LEVEL


@pytest.fixture(scope="module")
def meter(mini_pipeline):
    return mini_pipeline.meter(HPC_LEVEL)


@pytest.fixture(scope="module")
def records(mini_pipeline):
    return mini_pipeline.test_run("ordering").records


DROPOUT_20 = FaultPlan(
    seed=11, faults=(FaultSpec(kind="dropout", probability=0.2),)
)


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
class TestPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            faults=(
                FaultSpec(kind="dropout", probability=0.25, tier="db"),
                FaultSpec(
                    kind="corrupt",
                    start=10,
                    end=20,
                    magnitude=4.0,
                    attributes=("ipc",),
                ),
                FaultSpec(kind="stall", tier="app", rearmable=False),
            ),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # the file is plain JSON a human can edit
        assert json.loads(path.read_text())["seed"] == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="dropout", probability=1.5)
        with pytest.raises(ValueError, match="end must exceed"):
            FaultSpec(kind="dropout", start=5, end=5)
        with pytest.raises(ValueError, match="magnitude"):
            FaultSpec(kind="corrupt", magnitude=0.0)

    def test_active_window(self):
        spec = FaultSpec(kind="dropout", start=3, end=6)
        assert [spec.active(t) for t in range(8)] == [
            False, False, False, True, True, True, False, False,
        ]
        forever = FaultSpec(kind="dropout", start=2)
        assert forever.active(10**9)


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_retries_transient_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert retry_io(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        # exponential backoff: base, base*2
        assert sleeps == [0.05, 0.1]

    def test_exhaustion_reraises_final_error(self):
        def always():
            raise OSError("gone")

        with pytest.raises(OSError, match="gone"):
            retry_io(always, attempts=2, sleep=lambda _: None)

    def test_non_matching_errors_pass_straight_through(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("not io")

        with pytest.raises(ValueError):
            retry_io(boom, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_backoff_is_capped(self):
        sleeps = []

        def always():
            raise OSError("x")

        with pytest.raises(OSError):
            retry_io(
                always,
                attempts=6,
                base_delay=0.1,
                max_delay=0.3,
                sleep=sleeps.append,
            )
        assert sleeps == [0.1, 0.2, 0.3, 0.3, 0.3]


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
class TestInjector:
    def _collect(self, plan, records):
        out = []
        injector = FaultInjector(plan, out.append)
        for record in records:
            injector.push(record)
        return out, injector

    def test_zero_fault_plan_is_identity(self, records):
        out, injector = self._collect(FaultPlan(seed=1), records[:40])
        assert [id(r) for r in out] == [id(r) for r in records[:40]]
        assert injector.counters.delivered == 40

    def test_injection_is_deterministic(self, records):
        plan = FaultPlan(
            seed=9,
            faults=(
                FaultSpec(kind="dropout", probability=0.3),
                FaultSpec(kind="corrupt", probability=0.1, magnitude=3.0),
                FaultSpec(kind="drop_record", probability=0.05),
                FaultSpec(kind="duplicate_record", probability=0.05),
            ),
        )
        out_a, inj_a = self._collect(plan, records[:120])
        out_b, inj_b = self._collect(plan, records[:120])
        assert inj_a.counters.as_dict() == inj_b.counters.as_dict()
        assert len(out_a) == len(out_b)
        for ra, rb in zip(out_a, out_b):
            assert ra.hpc == rb.hpc
            assert ra.os == rb.os

    def test_mutations_are_copy_on_write(self, records):
        original = {
            tier: dict(metrics) for tier, metrics in records[0].hpc.items()
        }
        plan = FaultPlan(
            seed=2, faults=(FaultSpec(kind="dropout", probability=1.0),)
        )
        out, _ = self._collect(plan, records[:1])
        assert records[0].hpc == original  # producer's record untouched
        assert out[0].hpc != original

    def test_dropout_removes_targeted_attributes(self, records):
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(
                    kind="dropout",
                    probability=1.0,
                    tier="db",
                    attributes=("ipc",),
                ),
            ),
        )
        out, injector = self._collect(plan, records[:5])
        for record in out:
            assert "ipc" not in record.hpc["db"]
            assert "ipc" in record.hpc["app"]  # other tier untouched
        assert injector.counters.attributes_dropped == 5

    def test_corrupt_scales_values(self, records):
        plan = FaultPlan(
            seed=4,
            faults=(
                FaultSpec(
                    kind="corrupt",
                    probability=1.0,
                    tier="app",
                    attributes=("ipc",),
                    magnitude=10.0,
                ),
            ),
        )
        out, _ = self._collect(plan, records[:3])
        for faulted, clean in zip(out, records):
            assert faulted.hpc["app"]["ipc"] == pytest.approx(
                clean.hpc["app"]["ipc"] * 10.0
            )

    def test_drop_and_duplicate_change_delivery_count(self, records):
        n = 100
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="drop_record", probability=0.3),),
        )
        out, injector = self._collect(plan, records[:n])
        assert len(out) == n - injector.counters.records_dropped
        assert 0 < injector.counters.records_dropped < n

        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="duplicate_record", probability=0.3),),
        )
        out, injector = self._collect(plan, records[:n])
        assert len(out) == n + injector.counters.records_duplicated
        assert 0 < injector.counters.records_duplicated < n

    def test_stall_silences_tier_until_rearmed(self, records):
        plan = FaultPlan(
            seed=6,
            faults=(FaultSpec(kind="stall", tier="db", start=2, end=3),),
        )
        out = []
        injector = FaultInjector(plan, out.append)
        for record in records[:6]:
            injector.push(record)
        assert all("db" in r.hpc for r in out[:2])
        assert all("db" not in r.hpc and "db" not in r.os for r in out[2:])
        assert injector.stalled_tiers == ["db"]
        assert injector.rearm("db") is True
        injector.push(records[6])
        assert "db" in out[-1].hpc

    def test_unrearmable_stall_is_refused(self, records):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(
                    kind="stall", tier="db", start=0, end=1, rearmable=False
                ),
            ),
        )
        injector = FaultInjector(plan, lambda r: None)
        injector.push(records[0])
        assert injector.rearm("db") is False
        assert injector.counters.rearms_refused == 1
        assert injector.stalled_tiers == ["db"]
        # a tier that is not stalled is also a no-op
        assert injector.rearm("app") is False


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_detects_and_rearms_with_backoff(self, records):
        plan = FaultPlan(
            seed=8,
            faults=(
                FaultSpec(
                    kind="stall", tier="db", start=5, end=6, rearmable=False
                ),
            ),
        )
        injector = FaultInjector(plan)
        attempts_at = []
        tick = {"n": 0}

        def rearm(tier):
            attempts_at.append(tick["n"])
            return injector.rearm(tier)

        watchdog = SamplerWatchdog(
            ["app", "db"],
            rearm,
            stall_ticks=3,
            base_backoff=2,
            max_backoff=8,
        )

        def deliver(record):
            tick["n"] += 1
            watchdog.observe(record)

        injector.downstream = deliver
        for record in records[:30]:
            injector.push(record)
        assert watchdog.counters.stalls_detected == 1
        assert watchdog.counters.rearms_succeeded == 0
        assert watchdog.flagged_tiers == ["db"]
        # first attempt after stall_ticks silent ticks; then exponential
        # gaps 2, 4, 8 capped at 8
        gaps = [b - a for a, b in zip(attempts_at, attempts_at[1:])]
        assert gaps[:4] == [2, 4, 8, 8]

    def test_rearmable_stall_recovers(self, records):
        plan = FaultPlan(
            seed=9,
            faults=(FaultSpec(kind="stall", tier="db", start=5, end=6),),
        )
        injector = FaultInjector(plan)
        watchdog = SamplerWatchdog(["app", "db"], injector.rearm, stall_ticks=3)
        injector.downstream = watchdog.observe
        for record in records[:20]:
            injector.push(record)
        assert watchdog.counters.rearms_succeeded == 1
        assert injector.stalled_tiers == []
        assert watchdog.flagged_tiers == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerWatchdog(["app"], lambda t: True, stall_ticks=0)
        with pytest.raises(ValueError):
            SamplerWatchdog(["app"], lambda t: True, max_backoff=1, base_backoff=2)


# ----------------------------------------------------------------------
# degraded-mode prediction
# ----------------------------------------------------------------------
class TestDegradedPrediction:
    def test_synopsis_complete_metrics_take_clean_path(self, meter):
        synopsis = next(iter(meter.synopses.values()))
        metrics = dict(synopsis.attribute_marginals)
        vote, imputed = synopsis.predict_degraded(metrics)
        assert imputed == 0
        assert vote == synopsis.predict(metrics)

    def test_synopsis_imputes_from_marginals(self, meter):
        synopsis = next(iter(meter.synopses.values()))
        assert synopsis.attribute_marginals  # populated by train()
        metrics = dict(synopsis.attribute_marginals)
        dropped = synopsis.attributes[0]
        del metrics[dropped]
        vote, imputed = synopsis.predict_degraded(
            metrics, max_imputed=len(synopsis.attributes)
        )
        assert imputed == 1
        # imputing the marginal reproduces the all-marginals vote
        assert vote == synopsis.predict(dict(synopsis.attribute_marginals))

    def test_synopsis_abstains_when_too_degraded(self, meter):
        synopsis = next(iter(meter.synopses.values()))
        assert synopsis.predict_degraded(None) == (None, 0)
        vote, missing = synopsis.predict_degraded({}, max_imputed=0)
        assert vote is None
        assert missing == len(synopsis.attributes)

    def test_coordinator_clean_parity(self, meter, mini_pipeline):
        run = mini_pipeline.test_run("browsing")
        instances = meter.instances_for(run)
        a = meter.coordinator
        a.reset_history()
        clean = []
        for instance in instances:
            clean.append(a.predict(instance.metrics))
            a.observe(instance.label)
        a.reset_history()
        degraded = []
        for instance in instances:
            degraded.append(a.predict_degraded(instance.metrics))
            a.observe(instance.label)
        a.reset_history()
        assert clean == degraded  # dataclass equality, bit-for-bit

    def test_coordinator_quorum_failure_returns_none(self, meter):
        coordinator = meter.coordinator
        coordinator.reset_history()
        before = coordinator.runtime_state()
        assert coordinator.predict_degraded({}) is None
        assert coordinator.runtime_state() == before  # history untouched

    def test_coordinator_fills_abstained_bits(self, meter, mini_pipeline):
        run = mini_pipeline.test_run("browsing")
        instance = meter.instances_for(run)[0]
        coordinator = meter.coordinator
        coordinator.reset_history()
        partial = {"app": instance.metrics["app"]}  # db synopses abstain
        prediction = coordinator.predict_degraded(partial, min_votes=1)
        coordinator.reset_history()
        assert prediction is not None
        assert prediction.degraded
        db_indices = [
            i
            for i, synopsis in enumerate(coordinator.synopses)
            if synopsis.tier == "db"
        ]
        assert set(prediction.abstained) == set(db_indices)

    def test_runtime_state_round_trip(self, meter, mini_pipeline):
        run = mini_pipeline.test_run("browsing")
        instances = meter.instances_for(run)
        coordinator = meter.coordinator
        coordinator.reset_history()
        for instance in instances[:5]:
            coordinator.predict(instance.metrics)
            coordinator.observe(instance.label)
        state = coordinator.runtime_state()
        next_a = coordinator.predict(instances[5].metrics)
        coordinator.reset_history()
        coordinator.restore_runtime_state(state)
        next_b = coordinator.predict(instances[5].metrics)
        coordinator.reset_history()
        assert next_a == next_b


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
class TestCampaign:
    def test_zero_fault_campaign_is_bit_identical(self, meter, records):
        result = run_campaign(meter, records, FaultPlan(seed=1))
        assert result.signature == result.clean_signature
        assert result.agreement == 1.0
        assert result.ba_drop == 0.0
        assert [d.prediction for d in result.fault_decisions] == [
            d.prediction for d in result.clean_decisions
        ]
        assert result.fault_counters.degraded_windows == 0

    def test_fixed_seed_campaign_is_deterministic(self, meter, records):
        plan = FaultPlan(
            seed=21,
            faults=(
                FaultSpec(kind="dropout", probability=0.2),
                FaultSpec(kind="corrupt", probability=0.05, magnitude=5.0),
                FaultSpec(kind="stall", tier="db", start=40, end=41),
                FaultSpec(kind="drop_record", probability=0.02),
                FaultSpec(kind="duplicate_record", probability=0.02),
            ),
        )
        a = run_campaign(meter, records, plan)
        b = run_campaign(meter, records, plan)
        assert a.signature == b.signature
        assert asdict(a.fault_counters) == asdict(b.fault_counters)
        assert a.injection.as_dict() == b.injection.as_dict()
        assert a.watchdog.as_dict() == b.watchdog.as_dict()
        assert a.fault_scores == b.fault_scores

    def test_dropout_20_percent_decides_every_window(self, meter, records):
        result = run_campaign(meter, records, DROPOUT_20)
        assert result.fault_counters.windows == result.clean_counters.windows
        assert result.fault_counters.windows > 0
        assert all(d.degraded for d in result.fault_decisions)
        assert (
            result.fault_counters.degraded_windows
            == result.fault_counters.windows
        )
        # degradation is graceful, not catastrophic
        assert result.fault_scores["overload_ba"] > 0.5

    def test_total_blackout_holds_last_decision(self, meter, records):
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="stall", start=100, end=101, rearmable=False),
            ),
        )
        result = run_campaign(meter, records, plan, use_watchdog=False)
        assert result.fault_counters.windows == result.clean_counters.windows
        held = [d for d in result.fault_decisions if d.held]
        assert held
        for decision in held:
            assert decision.degraded
            assert not decision.prediction.confident
        # confidence decays geometrically along a held streak
        streak = [d for d in result.fault_decisions[-3:] if d.held]
        if len(streak) >= 2:
            assert abs(streak[-1].prediction.hc) <= abs(
                streak[-2].prediction.hc
            )

    def test_watchdog_restores_accuracy_after_stall(self, meter, records):
        plan = FaultPlan(
            seed=4,
            faults=(FaultSpec(kind="stall", tier="db", start=50, end=51),),
        )
        with_wd = run_campaign(meter, records, plan, use_watchdog=True)
        without = run_campaign(meter, records, plan, use_watchdog=False)
        assert with_wd.watchdog.rearms_succeeded == 1
        assert (
            with_wd.injection.stalled_tier_ticks
            < without.injection.stalled_tier_ticks
        )
        assert with_wd.agreement >= without.agreement

    def test_signature_helper(self, meter, records):
        result = run_campaign(meter, records[:40], FaultPlan(seed=1))
        assert decision_signature(result.fault_decisions) == result.signature
        assert isinstance(result, CampaignResult)
        assert any("agreement" in row for row in result.rows())


# ----------------------------------------------------------------------
# checkpoint / restore
# ----------------------------------------------------------------------
class TestCheckpoint:
    @pytest.mark.parametrize("cut", [37, 135])  # mid-window both times
    def test_restore_resumes_bit_identically(
        self, meter, mini_pipeline, records, tmp_path, cut
    ):
        reference = OnlineCapacityMonitor(meter, labeler=mini_pipeline.labeler)
        for record in records:
            reference.push(record)

        first = OnlineCapacityMonitor(meter, labeler=mini_pipeline.labeler)
        for record in records[:cut]:
            first.push(record)
        path = tmp_path / "monitor.ckpt"
        save_checkpoint(first, path)

        resumed = load_checkpoint(path, labeler=mini_pipeline.labeler)
        for record in records[cut:]:
            resumed.push(record)

        ref = list(reference.decisions)
        combined = list(first.decisions) + list(resumed.decisions)
        assert [(d.index, d.prediction, d.truth) for d in ref] == [
            (d.index, d.prediction, d.truth) for d in combined
        ]
        assert asdict(reference.counters) == asdict(resumed.counters)
        assert reference.scores() == resumed.scores()
        assert reference.pi_correlations() == resumed.pi_correlations()

    def test_restore_skips_retraining(self, meter, mini_pipeline, records, tmp_path):
        monitor = OnlineCapacityMonitor(meter, labeler=mini_pipeline.labeler)
        for record in records[:30]:
            monitor.push(record)
        path = tmp_path / "monitor.ckpt"
        save_checkpoint(monitor, path)
        resumed = load_checkpoint(path, labeler=mini_pipeline.labeler)
        # the embedded meter is already trained, tables intact
        assert resumed.meter.is_trained
        assert np.array_equal(
            resumed.meter.coordinator._lht, meter.coordinator._lht
        )

    def test_bad_checkpoint_fails_loudly(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a monitor checkpoint"):
            load_checkpoint(path)

    def test_save_retries_transient_errors(self, meter, mini_pipeline, records, tmp_path):
        monitor = OnlineCapacityMonitor(meter, labeler=mini_pipeline.labeler)
        for record in records[:12]:
            monitor.push(record)
        path = tmp_path / "deep" / "monitor.ckpt"
        sleeps = []
        save_checkpoint(monitor, path, sleep=sleeps.append)
        assert path.exists()
        assert sleeps == []  # healthy fs: no retries spent

    def test_write_is_fsynced_around_the_rename(self, tmp_path, monkeypatch):
        """The temp file is durable before the rename, the rename after."""
        import os
        import stat

        from repro.faults.checkpoint import write_json_atomic

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            calls.append((f"fsync-{kind}", info.st_size))
            real_fsync(fd)

        def replace(src, dst, *args, **kwargs):
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        payload = {"format": "x", "values": list(range(50))}
        target = tmp_path / "state.json"
        write_json_atomic(target, payload)

        text = json.dumps(payload)
        assert [name for name, _ in calls] == [
            "fsync-file", "replace", "fsync-dir"
        ]
        # the whole text was flushed to the temp file before its fsync
        assert calls[0][1] == len(text)
        assert calls[1][1] == "state.json"
        assert json.loads(target.read_text()) == payload
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    @pytest.mark.parametrize(
        "code, survives",
        [("EINVAL", True), ("ENOTSUP", True), ("EOPNOTSUPP", True), ("EIO", False)],
    )
    def test_directory_fsync_refusal_is_not_a_failed_write(
        self, tmp_path, monkeypatch, code, survives
    ):
        """A mount that cannot fsync a directory still gets the file."""
        import errno
        import os
        import stat

        from repro.faults.checkpoint import write_json_atomic

        real_fsync = os.fsync
        file_fsyncs = []

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(getattr(errno, code), code)
            file_fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        target = tmp_path / "state.json"
        sleeps = []
        if survives:
            write_json_atomic(target, {"ok": 1}, sleep=sleeps.append)
            assert sleeps == []  # not retried
            assert len(file_fsyncs) == 1
        else:
            with pytest.raises(OSError):
                write_json_atomic(target, {"ok": 1}, sleep=sleeps.append)
            assert len(sleeps) == 2  # a real I/O error is still retried
        # the rename happened either way; no temp file is left behind
        assert json.loads(target.read_text()) == {"ok": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_faults_campaign_smoke_and_gate(self, capsys):
        argv = [
            "faults",
            "--scale",
            "0.2",
            "--mix",
            "ordering",
            "--dropout",
            "0.2",
            "--stall",
            "db",
            "--fault-seed",
            "3",
        ]
        assert main(argv) == 0
        out_a = capsys.readouterr().out
        assert "decision agreement" in out_a
        assert "# decision signature:" in out_a
        # identical invocation -> identical report (determinism probe)
        assert main(argv) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b
        # an impossible floor trips the gate
        assert main(argv + ["--min-ba", "1.01"]) == 1
        assert "# FAIL" in capsys.readouterr().out

    def test_faults_requires_some_fault(self):
        with pytest.raises(SystemExit, match="empty fault plan"):
            main(["faults", "--scale", "0.2"])

    def test_monitor_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "monitor.ckpt")
        base = [
            "monitor",
            "--scale",
            "0.2",
            "--mix",
            "ordering",
            "--checkpoint",
            ckpt,
            "--checkpoint-every",
            "5",
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert f"# checkpoint saved to {ckpt}" in out
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "# resumed from" in out
        assert "no retraining" in out

    def test_monitor_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["monitor", "--resume", "--scale", "0.2"])
