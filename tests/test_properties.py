"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coordinator import CoordinatedPredictor
from repro.core.pi import correlation, normalize_to_geometric_mean
from repro.learners.discretize import EqualFrequencyDiscretizer
from repro.learners.information_gain import information_gain
from repro.learners.validation import ConfusionMatrix, stratified_kfold_indices
from repro.simulator.engine import Simulator
from repro.simulator.resources import CacheModel, ContentionModel
from repro.telemetry.dataset import Dataset, Instance

# simulation-building strategies are moderately expensive; keep examples modest
MODEST = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestEngineProperties:
    @MODEST
    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=50))
    def test_events_always_fire_in_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @MODEST
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_cancelled_events_never_fire(self, items):
        sim = Simulator()
        fired = []
        for i, (delay, cancel) in enumerate(items):
            handle = sim.schedule(delay, lambda i=i: fired.append(i))
            if cancel:
                handle.cancel()
            sim.run()
        expected = [i for i, (_, cancel) in enumerate(items) if not cancel]
        assert sorted(fired) == expected


class TestProcessorSharingProperties:
    @MODEST
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12
        )
    )
    def test_work_is_conserved(self, demands):
        """All submitted demand is eventually credited as work done."""
        from repro.simulator.server import HardwareSpec, Job, TierServer

        sim = Simulator()
        server = TierServer(
            sim,
            HardwareSpec(name="t", cores=2, l2_cache_kb=1e9),
            workers=4,
            contention=ContentionModel(cores=2, cs_overhead=0.01),
            cache=CacheModel(capacity=1e9, base_miss_rate=0.0),
            miss_stall_factor=0.0,
        )
        for demand in demands:
            server.submit(
                Job(demand=demand),
                lambda s: server.run_phase(s, s.job.demand, server.finish),
            )
        sim.run()
        sample = server.sample()
        assert sample.completed == len(demands)
        assert sample.work_done == pytest.approx(sum(demands), rel=1e-6)

    @MODEST
    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=8
        )
    )
    def test_sharing_never_beats_isolation(self, demands):
        """Under PS, each job finishes no earlier than it would alone."""
        from repro.simulator.server import HardwareSpec, Job, TierServer

        sim = Simulator()
        server = TierServer(
            sim,
            HardwareSpec(name="t", cores=1, l2_cache_kb=1e9),
            workers=len(demands),
            contention=ContentionModel(cores=1, cs_overhead=0.0),
            cache=CacheModel(capacity=1e9, base_miss_rate=0.0),
            miss_stall_factor=0.0,
        )
        finish_times = {}

        def start(index, demand):
            server.submit(
                Job(demand=demand),
                lambda s: server.run_phase(
                    s,
                    demand,
                    lambda ss: (
                        server.finish(ss),
                        finish_times.__setitem__(index, sim.now),
                    ),
                ),
            )

        for i, demand in enumerate(demands):
            start(i, demand)
        sim.run()
        for i, demand in enumerate(demands):
            assert finish_times[i] >= demand - 1e-9


class _AlwaysReschedule(Simulator):
    """A simulator whose ``last_scheduled`` never names a pending event.

    Every :meth:`TierServer._resync` then cancels and pushes its
    completion again: the reference that keeping a completion a push
    would not move is compared against.
    """

    @property
    def last_scheduled(self):
        return None

    @last_scheduled.setter
    def last_scheduled(self, event):
        pass


def _tier_stream(sim, ops):
    """Drive one contended tier through ``ops``.

    Returns its samples and the order in which jobs arrived and left,
    which exposes the tie order of equal-time events.
    """
    from dataclasses import astuple

    from repro.simulator.server import HardwareSpec, Job, TierServer

    server = TierServer(
        sim,
        HardwareSpec(name="t", cores=2, l2_cache_kb=64.0),
        workers=3,
        queue_capacity=2,
        contention=ContentionModel(cores=2, cs_overhead=0.01),
        # no compulsory misses: rates stay round until the cache
        # overflows, so completions land on the time grid and tie
        cache=CacheModel(capacity=64.0, base_miss_rate=0.0),
        miss_stall_factor=1.5,
        queue_in_working_set=0.5,
    )
    samples = []
    log = []
    sim.every(0.5, lambda: samples.append(astuple(server.sample())))

    def submit(index, demand, footprint, hold):
        def finish(s):
            server.finish(s)
            log.append(("done", index, sim.now))

        def admitted(session):
            def after_first(s):
                if hold is None:
                    finish(s)
                else:
                    sim.schedule(
                        hold, lambda: server.run_phase(s, demand, finish)
                    )

            server.run_phase(session, demand, after_first)

        log.append(("arrive", index, sim.now))
        server.submit(Job(demand=demand, footprint_kb=footprint), admitted)

    for index, (at, background, demand, footprint, hold) in enumerate(ops):
        if background:
            sim.schedule_at(
                at,
                lambda d=demand, f=footprint: server.run_background(
                    d, footprint_kb=f
                ),
            )
        else:
            sim.schedule_at(
                at,
                lambda i=index, d=demand, f=footprint, h=hold: submit(
                    i, d, f, h
                ),
            )
    sim.run(until=6.0)
    samples.append(astuple(server.sample()))
    return samples, log, sim.events_executed


class TestCompletionRescheduleProperties:
    @MODEST
    @given(
        st.lists(
            st.tuples(
                # a coarse time grid and round demands make ties common
                st.integers(min_value=0, max_value=16).map(lambda k: k / 4),
                st.booleans(),
                st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
                | st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 16.0, 40.0]),
                st.none() | st.sampled_from([0.0, 0.25, 0.5]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_kept_completions_leave_the_stream_unchanged(self, ops):
        """Keeping a pending completion is bit-identical to re-pushing it."""
        assert _tier_stream(Simulator(), ops) == _tier_stream(
            _AlwaysReschedule(), ops
        )


class TestModelProperties:
    @given(st.integers(min_value=0, max_value=500))
    def test_contention_efficiency_in_unit_interval(self, n):
        model = ContentionModel(cores=2, cs_overhead=0.005)
        assert 0.0 < model.efficiency(n) <= 1.0
        assert 0.0 <= model.per_request_rate(n) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e9),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_cache_miss_rate_bounded(self, working_set, capacity):
        cache = CacheModel(capacity=capacity)
        rate = cache.miss_rate(working_set)
        assert cache.base_miss_rate <= rate < cache.max_miss_rate + 1e-9


class TestLearnerSupportProperties:
    @MODEST
    @given(
        st.lists(finite_floats, min_size=10, max_size=200),
        st.integers(min_value=2, max_value=8),
    )
    def test_discretizer_is_monotone(self, values, bins):
        X = np.array(values).reshape(-1, 1)
        disc = EqualFrequencyDiscretizer(bins=bins).fit(X)
        codes = disc.transform(X)[:, 0]
        order = np.argsort(values, kind="stable")
        assert (np.diff(codes[order]) >= 0).all()

    @MODEST
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=100),
        st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=100),
    )
    def test_information_gain_bounded_by_class_entropy(self, values, labels):
        n = min(len(values), len(labels))
        values = np.array(values[:n])
        labels = np.array(labels[:n])
        gain = information_gain(values, labels)
        p = labels.mean()
        class_entropy = (
            0.0
            if p in (0.0, 1.0)
            else -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        )
        assert 0.0 <= gain <= class_entropy + 1e-9

    @MODEST
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=80),
        st.integers(min_value=2, max_value=10),
    )
    def test_kfold_is_a_partition(self, labels, k):
        y = np.array(labels)
        seen = []
        for train, test in stratified_kfold_indices(y, k=k):
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(len(y)))

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60),
    )
    def test_confusion_counts_total(self, y_true, y_pred):
        n = min(len(y_true), len(y_pred))
        cm = ConfusionMatrix.from_predictions(
            np.array(y_true[:n]), np.array(y_pred[:n])
        )
        assert cm.tp + cm.tn + cm.fp + cm.fn == n
        assert 0.0 <= cm.balanced_accuracy <= 1.0


class TestPiProperties:
    @MODEST
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=60))
    def test_normalization_preserves_ratios(self, series):
        arr = np.array(series)
        normalized = normalize_to_geometric_mean(arr)
        ratio = normalized / arr
        assert np.allclose(ratio, ratio[0])

    @MODEST
    @given(
        st.lists(finite_floats, min_size=2, max_size=50),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_correlation_invariant_to_affine_maps(self, series, scale, shift):
        arr = np.array(series)
        base = correlation(arr, arr)
        scaled = correlation(arr, scale * arr + shift)
        # numerically-constant series are treated as zero variation
        tol = 1e-12 * max(1.0, float(np.abs(arr).max()))
        if np.std(arr) <= tol:
            assert base == 0.0
        else:
            assert base == pytest.approx(1.0)
            assert scaled == pytest.approx(1.0, abs=1e-6)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10))
    def test_gpv_encoding_is_bijective(self, votes):
        gpv = CoordinatedPredictor._gpv(votes)
        decoded = [(gpv >> i) & 1 for i in range(len(votes))]
        assert decoded == votes


class TestDatasetProperties:
    @MODEST
    @given(
        st.lists(
            st.tuples(finite_floats, finite_floats, st.integers(0, 1)),
            min_size=1,
            max_size=30,
        )
    )
    def test_save_load_roundtrip(self, rows):
        import tempfile
        from pathlib import Path

        instances = [
            Instance(attributes={"a": a, "b": b}, label=label)
            for a, b, label in rows
        ]
        ds = Dataset(instances)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.json"
            ds.save(path)
            loaded = Dataset.load(path)
        assert loaded.attribute_names == ds.attribute_names
        assert list(loaded) == list(ds)


class TestChainProperties:
    @MODEST
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=0.0, max_value=0.05),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_every_chain_request_answers_once(self, demand_rows):
        """Conservation through a 3-tier chain with arbitrary demands."""
        from repro.simulator import (
            CacheModel,
            ChainRequest,
            ChainWebsite,
            ContentionModel,
            HardwareSpec,
            TierServer,
        )

        sim = Simulator()

        def tier(name):
            return TierServer(
                sim,
                HardwareSpec(name=name, l2_cache_kb=1e6),
                workers=4,
                queue_capacity=2,
                contention=ContentionModel(cores=1, cs_overhead=0.0),
                cache=CacheModel(capacity=1e6, base_miss_rate=0.0),
                miss_stall_factor=0.0,
            )

        chain = ChainWebsite(sim, [tier("a"), tier("b"), tier("c")])
        outcomes = []
        for demands in demand_rows:
            chain.submit(
                ChainRequest(
                    "p",
                    "browse",
                    demands=demands,
                    footprints_kb=(1.0, 1.0, 1.0),
                ),
                outcomes.append,
            )
        sim.run()
        assert len(outcomes) == len(demand_rows)
        assert chain.in_flight == 0
        for t in chain.tiers.values():
            assert t.threads_in_use == 0
            assert t.queue_length == 0


class TestPlottingProperties:
    @MODEST
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=80),
    )
    def test_sparkline_length_and_charset(self, values, width):
        from repro.analysis.plotting import sparkline

        line = sparkline(values, width=width)
        assert len(line) == min(len(values), width)
        assert set(line) <= set("▁▂▃▄▅▆▇█")
