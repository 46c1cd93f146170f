"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulator.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_custom_start(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.peek() is None

    def test_nan_delay_cannot_corrupt_heap_order(self):
        """Regression: a NaN delay used to be accepted and broke the heap
        invariant, so the event due at t=0.5 fired after the one at
        t=1.0 (observed order [1.0, 0.5, nan, 2.0])."""
        sim = Simulator()
        fired = []
        for delay in (1.0, float("nan"), 2.0, 0.5):
            try:
                sim.schedule(delay, lambda d=delay: fired.append(d))
            except SimulationError:
                pass
        sim.run()
        assert fired == [0.5, 1.0, 2.0]

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_event_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_other_events_survive_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        handle.cancel()
        sim.run()
        assert fired == ["b"]

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.peek() == 2.0

    def test_peek_empty(self):
        assert Simulator().peek() is None


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_leaves_future_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=3.0)
        sim.run()
        assert fired == ["b"]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(True))
        sim.run(until=3.0)
        assert fired == [True]

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestStep:
    def test_step_executes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        handle.cancel()
        assert sim.step() is True
        assert fired == ["b"]


class TestRecurring:
    def test_every_fires_periodically(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_every_with_start_delay(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now), start_delay=0.5)
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_every_cancel_stops_series(self):
        sim = Simulator()
        times = []
        handle = sim.every(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, handle.cancel)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestRecurringSelfCancel:
    def test_cancel_from_inside_action_stops_series(self):
        """Regression: a series cancelled by its own action must stop —
        cancelling the already-fired event alone would let the tick
        reschedule forever."""
        sim = Simulator()
        fired = []
        handle_box = {}

        def action():
            fired.append(sim.now)
            if len(fired) == 3:
                handle_box["h"].cancel()

        handle_box["h"] = sim.every(1.0, action)
        sim.run()  # unbounded: must terminate
        assert fired == [1.0, 2.0, 3.0]
        assert sim.peek() is None

    def test_self_cancelling_driver_leaves_no_timers(self, sim, website):
        from repro.workload.generator import ScheduleDriver, steady
        from repro.workload.rbe import RemoteBrowserEmulator
        from repro.workload.tpcw import ORDERING_MIX

        rbe = RemoteBrowserEmulator(
            sim, website, ORDERING_MIX, think_time_mean=0.5, seed=2
        )
        ScheduleDriver(sim, rbe, steady(0, 5.0))
        sim.run()  # population 0, schedule ends: the heap must drain
        assert sim.peek() is None
