"""Unit tests for contention, cache and worker-pool models."""

import dataclasses

import pytest

from repro.simulator.resources import CacheModel, ContentionModel, WorkerPool


class TestContentionModel:
    def test_idle_efficiency_is_one(self):
        assert ContentionModel(cores=1).efficiency(0) == 1.0

    def test_efficiency_decreases_with_threads(self):
        model = ContentionModel(cores=1, cs_overhead=0.01)
        values = [model.efficiency(n) for n in (1, 10, 50, 100)]
        assert values == sorted(values, reverse=True)

    def test_no_overhead_below_core_count(self):
        model = ContentionModel(cores=4, cs_overhead=0.01)
        assert model.efficiency(4) == 1.0

    def test_per_request_rate_full_when_underloaded(self):
        model = ContentionModel(cores=2)
        assert model.per_request_rate(1) == 1.0
        assert model.per_request_rate(2) == 1.0

    def test_per_request_rate_shares_cores(self):
        model = ContentionModel(cores=2, cs_overhead=0.0)
        assert model.per_request_rate(4) == pytest.approx(0.5)

    def test_aggregate_rate_droops_past_saturation(self):
        model = ContentionModel(cores=1, cs_overhead=0.01)
        assert model.aggregate_rate(50) < model.aggregate_rate(1)

    def test_aggregate_rate_zero_when_idle(self):
        assert ContentionModel().aggregate_rate(0) == 0.0

    def test_aggregate_rate_caps_at_cores(self):
        model = ContentionModel(cores=2, cs_overhead=0.0)
        assert model.aggregate_rate(10) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"cores": -2},
            {"cs_overhead": -0.001},
            {"cs_overhead": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ContentionModel(**kwargs)


class TestCacheModel:
    def test_no_pressure_within_capacity(self):
        cache = CacheModel(capacity=512.0)
        assert cache.pressure(256.0) == 0.0
        assert cache.miss_rate(256.0) == cache.base_miss_rate

    def test_pressure_grows_past_capacity(self):
        cache = CacheModel(capacity=512.0)
        assert cache.pressure(1024.0) == pytest.approx(1.0)

    def test_miss_rate_monotone_in_working_set(self):
        cache = CacheModel(capacity=512.0)
        rates = [cache.miss_rate(ws) for ws in (100, 600, 1200, 5000)]
        assert rates == sorted(rates)

    def test_miss_rate_bounded_by_max(self):
        cache = CacheModel(capacity=100.0, max_miss_rate=0.5)
        assert cache.miss_rate(1e9) < 0.5
        assert cache.miss_rate(1e12) == pytest.approx(0.5, abs=1e-3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheModel(capacity=0.0).pressure(1.0)

    def test_pressure_and_miss_is_the_one_formula(self):
        cache = CacheModel(capacity=512.0, knee=0.6)
        for ws in (0.0, 256.0, 512.0, 700.0, 1e6, float("nan")):
            p, miss = cache.pressure_and_miss(ws)
            assert p == cache.pressure(ws)
            assert miss == cache.miss_rate(ws)
        # NaN working set clamps to zero pressure, as max(0.0, nan) does
        assert cache.pressure_and_miss(float("nan")) == (
            0.0, cache.base_miss_rate
        )

    def test_models_are_frozen(self):
        # a tier memoises rates from these models at construction
        with pytest.raises(dataclasses.FrozenInstanceError):
            CacheModel().capacity = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ContentionModel().cs_overhead = 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0.0},
            {"capacity": -1.0},
            {"capacity": float("nan")},
            {"knee": 0.0},
            {"knee": -0.5},
            {"base_miss_rate": -0.01},
            {"base_miss_rate": 0.5, "max_miss_rate": 0.4},
            {"max_miss_rate": 1.5},
        ],
    )
    def test_invalid_parameters_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            CacheModel(**kwargs)


class TestWorkerPool:
    def test_grant_when_free(self):
        pool = WorkerPool(2)
        assert pool.try_acquire(0.0, "a") == "granted"
        assert pool.in_use == 1

    def test_queue_when_full(self):
        pool = WorkerPool(1)
        pool.try_acquire(0.0, "a")
        assert pool.try_acquire(0.0, "b") == "queued"
        assert pool.queue_length == 1

    def test_drop_when_backlog_full(self):
        pool = WorkerPool(1, queue_capacity=1)
        pool.try_acquire(0.0, "a")
        pool.try_acquire(0.0, "b")
        assert pool.try_acquire(0.0, "c") == "dropped"

    def test_unbounded_backlog_by_default(self):
        pool = WorkerPool(1)
        pool.try_acquire(0.0, "a")
        for i in range(100):
            assert pool.try_acquire(0.0, i) == "queued"

    def test_release_hands_worker_to_backlog_head(self):
        pool = WorkerPool(1)
        pool.try_acquire(0.0, "a")
        pool.try_acquire(0.0, "b")
        pool.try_acquire(0.0, "c")
        assert pool.release(1.0) == "b"
        assert pool.release(2.0) == "c"
        assert pool.release(3.0) is None
        assert pool.in_use == 0

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            WorkerPool(1).release(0.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, queue_capacity=-1)

    def test_stats_counts(self):
        pool = WorkerPool(1, queue_capacity=1)
        pool.try_acquire(0.0, "a")
        pool.try_acquire(0.0, "b")
        pool.try_acquire(0.0, "c")  # dropped
        stats = pool.snapshot(1.0)
        assert stats.arrived == 3
        assert stats.admitted == 1
        assert stats.dropped == 1

    def test_snapshot_resets_window(self):
        pool = WorkerPool(1)
        pool.try_acquire(0.0, "a")
        pool.snapshot(1.0)
        stats = pool.snapshot(2.0)
        assert stats.arrived == 0

    def test_time_weighted_occupancy(self):
        pool = WorkerPool(2)
        pool.try_acquire(0.0, "a")
        pool.try_acquire(0.0, "b")
        pool.release(2.0)
        stats = pool.snapshot(4.0)
        # 2 workers for 2s then 1 worker for 2s = 6 worker-seconds
        assert stats.weighted_active == pytest.approx(6.0)
        assert stats.busy_time == pytest.approx(4.0)

    def test_queue_time_integral(self):
        pool = WorkerPool(1)
        pool.try_acquire(0.0, "a")
        pool.try_acquire(0.0, "b")
        pool.release(3.0)  # b waited 3s
        stats = pool.snapshot(3.0)
        assert stats.weighted_queue == pytest.approx(3.0)
