"""Unit tests for the tier server and its processor-sharing core."""

import math

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.resources import CacheModel, ContentionModel
from repro.simulator.server import HardwareSpec, Job, TierServer


def make_server(sim, *, cores=1, speed=1.0, workers=4, cs_overhead=0.0,
                cache=None, miss_stall_factor=0.0, **kwargs):
    spec = HardwareSpec(
        name="t", cores=cores, speed_factor=speed, l2_cache_kb=1e9
    )
    return TierServer(
        sim,
        spec,
        workers=workers,
        contention=ContentionModel(cores=cores, cs_overhead=cs_overhead),
        cache=cache or CacheModel(capacity=1e9, base_miss_rate=0.0),
        miss_stall_factor=miss_stall_factor,
        **kwargs,
    )


def run_one(sim, server, demand, footprint=1.0):
    """Submit a single-phase job and return (admit_times, done_times)."""
    done = []

    def on_admitted(session):
        server.run_phase(
            session,
            demand,
            lambda s: (server.finish(s), done.append(sim.now)),
        )

    server.submit(Job(demand=demand, footprint_kb=footprint), on_admitted)
    return done


class TestSingleJob:
    def test_isolated_job_runs_at_nominal_speed(self, sim):
        server = make_server(sim)
        done = run_one(sim, server, demand=2.0)
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_speed_factor_scales_service_time(self, sim):
        server = make_server(sim, speed=2.0)
        done = run_one(sim, server, demand=2.0)
        sim.run()
        assert done == [pytest.approx(1.0)]

    def test_zero_demand_completes_immediately(self, sim):
        server = make_server(sim)
        done = run_one(sim, server, demand=0.0)
        sim.run()
        assert done == [pytest.approx(0.0)]

    def test_service_time_recorded(self, sim):
        server = make_server(sim)
        sessions = []

        def on_admitted(session):
            sessions.append(session)
            server.run_phase(session, 1.5, server.finish)

        server.submit(Job(demand=1.5), on_admitted)
        sim.run()
        assert sessions[0].service_time == pytest.approx(1.5)


class TestProcessorSharing:
    def test_two_jobs_share_one_core(self, sim):
        server = make_server(sim, cores=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        # both progress at 1/2 speed and finish together at t=2
        assert done_a == [pytest.approx(2.0)]
        assert done_b == [pytest.approx(2.0)]

    def test_two_jobs_two_cores_no_slowdown(self, sim):
        server = make_server(sim, cores=2)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        assert done_a == [pytest.approx(1.0)]
        assert done_b == [pytest.approx(1.0)]

    def test_remaining_job_speeds_up_after_departure(self, sim):
        server = make_server(sim, cores=1)
        done_short = run_one(sim, server, demand=0.5)
        done_long = run_one(sim, server, demand=1.0)
        sim.run()
        # shared at rate 1/2 until short done at t=1 (0.5 each done);
        # long then runs alone: 0.5 remaining at full speed -> t=1.5
        assert done_short == [pytest.approx(1.0)]
        assert done_long == [pytest.approx(1.5)]

    def test_late_arrival_shares_remaining_work(self, sim):
        server = make_server(sim, cores=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = []
        sim.schedule(
            0.5, lambda: done_b.extend(run_one(sim, server, demand=1.0)) or None
        )
        sim.run()
        # a alone until 0.5 (0.5 left), then shared: a done at 1.5; b has
        # 0.5 left at that point, alone -> done at 2.0
        assert done_a == [pytest.approx(1.5)]
        assert done_b == []  # list captured before b finished

    def test_context_switch_overhead_slows_everyone(self, sim):
        server = make_server(sim, cores=1, cs_overhead=0.1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        # two runnable on one core: share 1/2, efficiency 1/1.1
        assert done_a == [pytest.approx(2.2)]
        assert done_b == [pytest.approx(2.2)]

    def test_cache_misses_inflate_service(self, sim):
        cache = CacheModel(
            capacity=10.0, base_miss_rate=0.0, max_miss_rate=0.5, knee=1e-9
        )
        server = make_server(
            sim, cache=cache, miss_stall_factor=2.0
        )
        # footprint 20 > capacity 10 -> pressure 1 -> miss ~0.5 -> 2x slower
        done = run_one(sim, server, demand=1.0, footprint=20.0)
        sim.run()
        assert done == [pytest.approx(2.0, rel=1e-6)]


class TestWorkerPoolGate:
    def test_queued_job_starts_after_release(self, sim):
        server = make_server(sim, workers=1)
        done_a = run_one(sim, server, demand=1.0)
        done_b = run_one(sim, server, demand=1.0)
        sim.run()
        assert done_a == [pytest.approx(1.0)]
        assert done_b == [pytest.approx(2.0)]

    def test_drop_when_backlog_full(self, sim):
        server = make_server(sim, workers=1, queue_capacity=0)
        run_one(sim, server, demand=1.0)
        result = server.submit(Job(demand=1.0), lambda s: None)
        assert result is None

    def test_queue_wait_recorded(self, sim):
        server = make_server(sim, workers=1)
        run_one(sim, server, demand=1.0)
        run_one(sim, server, demand=1.0)
        sim.run()
        sample = server.sample()
        assert sample.queue_wait_sum == pytest.approx(1.0)


class TestLifecycleErrors:
    def test_phase_while_running_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 1.0, lambda s: server.finish(s))

        server.submit(Job(demand=1.0), on_admitted)
        with pytest.raises(RuntimeError):
            server.run_phase(captured[0], 1.0, lambda s: None)

    def test_finish_mid_phase_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 1.0, lambda s: None)

        server.submit(Job(demand=1.0), on_admitted)
        with pytest.raises(RuntimeError):
            server.finish(captured[0])

    def test_double_finish_raises(self, sim):
        server = make_server(sim)
        captured = []

        def on_admitted(session):
            captured.append(session)
            server.run_phase(session, 0.5, server.finish)

        server.submit(Job(demand=0.5), on_admitted)
        sim.run()
        with pytest.raises(RuntimeError):
            server.finish(captured[0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Job(demand=-1.0)

    @pytest.mark.parametrize(
        "demand, footprint",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_job_rejected(self, demand, footprint):
        with pytest.raises(ValueError):
            Job(demand=demand, footprint_kb=footprint)

    @pytest.mark.parametrize("demand", [math.nan, math.inf, -1.0])
    def test_bad_phase_demand_rejected_before_running(self, sim, demand):
        """A NaN phase never reaches its mark: it must fail, not hang."""
        server = make_server(sim)
        held = []
        server.submit(Job(demand=1.0), held.append)
        with pytest.raises(ValueError):
            server.run_phase(held[0], demand, server.finish)
        # rejected before any state change: still blocked, nothing due
        assert (server.runnable, server.blocked) == (0, 1)
        assert not held[0].runnable
        assert sim.peek() is None

    @pytest.mark.parametrize(
        "demand, footprint", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)]
    )
    def test_bad_background_burst_rejected_before_running(
        self, sim, demand, footprint
    ):
        server = make_server(sim)
        with pytest.raises(ValueError):
            server.run_background(demand, footprint_kb=footprint)
        assert server.runnable == 0
        assert sim.peek() is None

    def test_mismatched_contention_cores_rejected(self, sim):
        spec = HardwareSpec(name="t", cores=2)
        with pytest.raises(ValueError):
            TierServer(
                sim, spec, workers=1, contention=ContentionModel(cores=1)
            )


class TestAccounting:
    def test_work_conservation(self, sim):
        """Total work credited equals total demand submitted."""
        server = make_server(sim, cores=1, workers=10)
        demands = [0.3, 0.5, 0.2, 0.7, 0.4]
        for d in demands:
            run_one(sim, server, demand=d)
        sim.run()
        sample = server.sample()
        assert sample.work_done == pytest.approx(sum(demands), rel=1e-6)
        assert sample.completed == len(demands)

    def test_busy_time_matches_single_job(self, sim):
        server = make_server(sim)
        run_one(sim, server, demand=2.0)
        sim.run()
        sample = server.sample()
        assert sample.core_busy_time == pytest.approx(2.0)
        assert sample.utilization == pytest.approx(2.0 / sample.duration)

    def test_sample_resets_window(self, sim):
        server = make_server(sim)
        run_one(sim, server, demand=1.0)
        sim.run()
        server.sample()
        sim.run(until=2.0)
        sample = server.sample()
        assert sample.completed == 0
        assert sample.work_done == pytest.approx(0.0)

    def test_runnable_average(self, sim):
        server = make_server(sim, cores=2)
        run_one(sim, server, demand=1.0)
        run_one(sim, server, demand=1.0)
        sim.run(until=2.0)
        sample = server.sample()
        # two runnable for 1s over a 2s window
        assert sample.runnable_avg == pytest.approx(1.0)

    def test_blocked_threads_tracked(self, sim):
        server = make_server(sim, workers=2)
        held = []

        server.submit(Job(demand=1.0), lambda s: held.append(s))
        sim.run(until=3.0)  # admitted but never runs a phase: blocked
        sample = server.sample()
        assert sample.blocked_avg == pytest.approx(1.0)
        assert server.blocked == 1

    def test_working_set_weights(self, sim):
        server = make_server(
            sim,
            workers=1,
            queue_in_working_set=0.5,
            blocked_in_working_set=1.0,
        )
        server.submit(Job(demand=1.0, footprint_kb=100.0), lambda s: None)
        server.submit(Job(demand=1.0, footprint_kb=100.0), lambda s: None)
        # one blocked (admitted, no phase), one queued at half weight
        assert server.working_set_kb() == pytest.approx(150.0)

    def test_background_work_accounted_separately(self, sim):
        server = make_server(sim)
        server.run_background(0.5)
        sim.run()
        sample = server.sample()
        assert sample.background_work == pytest.approx(0.5)
        assert sample.work_done == pytest.approx(0.0)

    def test_background_competes_for_cpu(self, sim):
        server = make_server(sim, cores=1)
        server.run_background(1.0)
        done = run_one(sim, server, demand=1.0)
        sim.run()
        # both share the core: job finishes at t=2
        assert done == [pytest.approx(2.0)]

    def test_negative_background_rejected(self, sim):
        server = make_server(sim)
        with pytest.raises(ValueError):
            server.run_background(-1.0)

    def test_tier_sample_properties_empty_window(self, sim):
        server = make_server(sim)
        sample = server.sample()
        assert sample.throughput == 0.0
        assert sample.mean_service_time == 0.0
        assert sample.mean_queue_wait == 0.0


class TestCompletionReschedule:
    """_resync keeps a pending completion only when a push would not move it."""

    def test_unchanged_rate_keeps_the_event_handle(self, sim):
        server = make_server(sim, workers=2)
        run_one(sim, server, demand=2.0)
        event = server._completion_event
        assert event is sim.last_scheduled
        entries = len(sim._heap)
        # a held session changes the state but not the progress rate
        server.submit(Job(demand=1.0), lambda s: None)
        server._resync()
        assert server._completion_event is event
        assert not event.cancelled
        assert len(sim._heap) == entries
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_equal_time_event_scheduled_later_forces_a_push(self, sim):
        server = make_server(sim)
        order = []
        server.submit(
            Job(demand=2.0),
            lambda s: server.run_phase(
                s, 2.0, lambda s: (server.finish(s), order.append("done"))
            ),
        )
        event = server._completion_event
        assert event.time == 2.0
        # the completion was pushed before this tie; a resync pushes it
        # again, so it now runs after the tie, as a fresh push always did
        sim.schedule_at(2.0, lambda: order.append("tie"))
        server._resync()
        assert event.cancelled
        assert server._completion_event is sim.last_scheduled
        assert server._completion_event.time == 2.0
        sim.run()
        assert order == ["tie", "done"]

    def test_rate_change_moves_the_completion(self, sim):
        server = make_server(sim)
        run_one(sim, server, demand=2.0)
        event = server._completion_event
        run_one(sim, server, demand=2.0)  # halves the rate
        assert event.cancelled
        assert server._completion_event.time == pytest.approx(4.0)
