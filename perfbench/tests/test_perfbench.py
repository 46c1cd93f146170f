"""The benchmark's own tests: span arithmetic, failure accounting, the
rate ladder and seed determinism.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats  # noqa: E402
from perfbench.spans import SpanRecorder, self_times  # noqa: E402


# ----------------------------------------------------------------------
# self time on nested spans
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4];  root > c [7, 9]
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 4.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    got = self_times(start, end, parent)
    assert got.tolist() == [10 - 5 - 2, 5 - 2, 2, 2]
    # the self times of all spans add up to the root's wall time
    assert got.sum() == pytest.approx(10.0)


class _Layered:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


def test_recorder_nests_wrapped_calls_and_restores_them():
    ticks = itertools.count(1)
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.wrap(_Layered, "outer", "outer")
    recorder.wrap(_Layered, "inner", "inner")
    try:
        assert _Layered().outer() == "done"
    finally:
        recorder.unwrap()
    assert "__wrapped__" not in vars(_Layered.outer)
    totals = recorder.layer_totals()
    # clock reads: outer 1..6, inner 2..3 and 4..5
    assert totals["outer"] == {"calls": 1.0, "size": 1.0,
                               "total_s": 5.0, "self_s": 3.0}
    assert totals["inner"]["calls"] == 2.0
    assert totals["inner"]["self_s"] == 2.0
    assert recorder.root_seconds() == 5.0
    table = recorder.table()
    assert table["parent"].tolist() == [-1, 0, 0]


def test_inactive_recorder_passes_calls_through():
    recorder = SpanRecorder()
    recorder.wrap(_Layered, "inner", "inner")
    try:
        recorder.active = False
        _Layered().inner()
        recorder.active = True
        _Layered().inner()
    finally:
        recorder.unwrap()
    assert recorder.layer_totals()["inner"]["calls"] == 1.0


def test_spans_carry_tick_and_request_ids():
    recorder = SpanRecorder()
    recorder.wrap(_Layered, "inner", "request", new_ident=True)
    try:
        recorder.set_ident(41)
        with recorder.span("tick"):
            pass
        _Layered().inner()
        _Layered().inner()
    finally:
        recorder.unwrap()
    assert recorder.table()["ident"].tolist() == [41, 42, 43]


def test_staticmethod_wrapping_keeps_it_static_and_sizes_spans():
    class Batch:
        @staticmethod
        def run(items):
            return len(items)

    recorder = SpanRecorder()
    recorder.wrap(Batch, "run", "batch", lambda items: len(items))
    try:
        assert Batch.run([1, 2, 3]) == 3
        assert Batch().run([1]) == 1
    finally:
        recorder.unwrap()
    totals = recorder.layer_totals()["batch"]
    assert totals["calls"] == 2.0 and totals["size"] == 4.0


def test_saved_spans_round_trip(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("child"):
            pass
    path = tmp_path / "spans.npz"
    recorder.save(path)
    saved = np.load(path)
    assert saved["t0_parent"].tolist() == [-1, 0]
    assert (saved["t0_end"] >= saved["t0_start"]).all()


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def _ok(due, latency, admitted=True):
    return stats.Outcome(due=due, lateness_ms=0.1, status=200,
                         latency_ms=latency, admitted=admitted)


def test_a_timeout_misses_the_latency_limit_and_counts_as_failed():
    timeout = stats.Outcome(due=0.0, lateness_ms=0.0, error="timeout")
    assert timeout.failed and not timeout.on_time()
    refused = stats.Outcome(due=0.1, lateness_ms=0.0, status=503,
                            latency_ms=1.0)
    assert refused.failed and not refused.on_time()
    slow = _ok(0.2, 51.0)
    assert not slow.failed and not slow.on_time()
    fast = _ok(0.3, 2.0, admitted=False)
    assert fast.on_time()

    report = stats.summarize_interval(150.0, [timeout, refused, slow, fast])
    assert (report.sent, report.admitted, report.rejected,
            report.failed) == (4, 1, 1, 2)
    assert report.accounted
    assert report.ok_share == pytest.approx(0.25)
    # failed requests sit at the client timeout: the tail shows them
    assert report.latency_ms_p99 == stats.UNANSWERED_MS
    assert not report.meets()


def test_nominal_speed_scales_only_the_part_after_the_send():
    late = stats.Outcome(due=1.0, lateness_ms=0.5, status=200,
                         latency_ms=2.5, admitted=True)
    timeout = stats.Outcome(due=0.0, lateness_ms=0.0, error="timeout")
    # a host twice as slow as nominal: the 2 ms after the send halve,
    # the generator's own 0.5 ms does not, a failure stays at the limit
    assert stats.latencies_at_nominal_speed([late, timeout], 2.0) == [
        stats.UNANSWERED_MS, pytest.approx(1.5)]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert " p95 " in stats.tail_note("tick", list(range(300)))
    assert " p99 " in stats.tail_note("admit", list(range(4000)))
    assert " p50 " in stats.tail_note("few", [1.0, 2.0])


def test_unparsable_200_is_a_failure():
    garbled = stats.Outcome(due=0.0, lateness_ms=0.0, status=200,
                            latency_ms=1.0, error="unparsable")
    report = stats.summarize_interval(10.0, [garbled])
    assert report.failed == 1 and report.accounted


# ----------------------------------------------------------------------
# the rate ladder
# ----------------------------------------------------------------------
def _rung(rate, p99, failed=0, lateness=1.0, backlog=False):
    return stats.IntervalReport(
        rate=rate, sent=100, admitted=100 - failed, rejected=0,
        failed=failed, ok_share=1.0, latency_ms_p50=1.0,
        latency_ms_p99=p99, lateness_ms_p50=0.5, lateness_ms_p99=lateness,
        backlog_growing=backlog)


def test_ladder_takes_the_highest_rate_below_the_first_miss():
    ladder = [_rung(300, 60.0), _rung(150, 8.0), _rung(225, 12.0),
              _rung(450, 9.0)]
    # 450 passes, but only after 300 missed: the climb stopped at 225
    assert stats.max_sustained_rate(ladder) == 225


def test_ladder_rejects_failures_backlog_and_a_late_generator():
    assert stats.max_sustained_rate([_rung(150, 5.0, failed=1)]) == 0.0
    assert stats.max_sustained_rate(
        [_rung(150, 5.0), _rung(225, 5.0, backlog=True)]) == 150
    assert stats.max_sustained_rate(
        [_rung(150, 5.0), _rung(225, 5.0, lateness=25.0)]) == 150
    assert stats.max_sustained_rate(
        [_rung(150, 5.0), _rung(225, 40.0), _rung(300, 49.9)]) == 300


def test_backlog_detects_latency_that_keeps_climbing():
    steady = [_ok(i, 2.0 + (i % 3)) for i in range(30)]
    climbing = [_ok(i, 2.0 + 3.0 * i) for i in range(30)]
    assert not stats.backlog_growing(steady)
    assert stats.backlog_growing(climbing)


def test_live_share_and_interpolation():
    assert stats.covered_share(10.0, 20.0, None) == 1.0
    assert stats.covered_share(10.0, 20.0, 25.0) == 1.0
    assert stats.covered_share(10.0, 20.0, 15.0) == 0.5
    marks = [(0.0, 0.0, 0), (1.0, 0.5, 10), (3.0, 1.5, 20)]
    assert stats.interpolate(marks, 2.0, 2) == 15.0
    assert stats.interpolate(marks, 0.5, 1) == 0.25
    assert stats.interpolate(marks, 9.0, 2) == 20.0


# ----------------------------------------------------------------------
# seed determinism of the generated inputs
# ----------------------------------------------------------------------
def test_load_schedule_is_byte_identical_per_seed():
    from perfbench.admit import load_plan, request_schedule

    sites = [f"site{i}" for i in range(8)]
    plan = load_plan(20.0)
    first = request_schedule(7, plan, sites)
    again = request_schedule(7, plan, sites)
    other = request_schedule(8, plan, sites)
    assert first == again
    assert first != other
    assert [p.label for p in plan][:2] == ["warmup", "base"]
    assert sum(p.duration for p in plan) == pytest.approx(20.0)
    offsets = [offset for _, offset, _ in first]
    assert offsets == sorted(offsets)


def test_fleet_inputs_are_identical_per_seed_and_phases_distinct():
    from perfbench.fleet import FAULT_EVERY, FAULT_OFFSET, make_inputs

    first = make_inputs(3, n_streams=16)
    assert first == make_inputs(3, n_streams=16)
    assert first != make_inputs(4, n_streams=16)
    pairs = set(zip(first.stream_of, first.phase_of))
    assert len(pairs) == len(first.specs) == 256
    assert sorted(np.bincount(first.stream_of)) == [16] * 16
    faulted = [i for i, spec in enumerate(first.specs) if spec.plan]
    assert faulted == list(range(FAULT_OFFSET, 256, FAULT_EVERY))
    kinds = {f.kind for f in first.specs[FAULT_OFFSET].plan.faults}
    assert kinds == {"dropout", "stall", "duplicate_record"}


def test_fleet_records_follow_each_sites_own_phase():
    from perfbench.fleet import make_inputs

    inputs = make_inputs(1, n_streams=2, ticks=5, sites=4)
    streams = [list("abcde"), list("vwxyz")]
    for site in range(4):
        phase = inputs.phase_of[site]
        stream = streams[inputs.stream_of[site]]
        assert [inputs.record(streams, site, t) for t in range(6)] == [
            stream[(phase + t) % 5] for t in range(6)]
