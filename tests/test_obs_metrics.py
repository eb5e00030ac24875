"""Tests for repro.obs.metrics: counters, count/total histograms, registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    counter,
    get_registry,
    histogram,
    reset,
    snapshot,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Zero the process-wide registry around every test."""
    reset()
    yield
    reset()


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_histogram_aggregates(self):
        h = Histogram("x")
        for value in (1.0, 2.0, 3.0, 4.0):
            h.observe(value)
        assert h.count == 4
        assert h.total == 10.0
        h.add(2, 5.5)
        assert (h.count, h.total) == (6, 15.5)

    def test_histogram_empty_is_well_defined(self):
        reg = MetricsRegistry()
        h = reg.histogram("x")
        assert (h.count, h.total) == (0, 0.0)
        assert reg.snapshot()["histograms"]["x"] == {"count": 0, "total": 0.0}

    def test_histogram_reset(self):
        h = Histogram("x")
        h.observe(7.0)
        h.reset()
        assert h.count == 0
        assert h.total == 0.0
        h.observe(2.0)
        assert (h.count, h.total) == (1, 2.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("sims").inc(3)
        reg.histogram("secs").observe(0.5)
        reg.histogram("secs").observe(0.25)
        assert reg.snapshot() == {
            "counters": {"sims": 3},
            "histograms": {"secs": {"count": 2, "total": 0.75}},
        }

    def test_reset_zeroes_in_place(self):
        # Modules cache handles at import time; reset() must keep those
        # handles live rather than replacing the instruments.
        reg = MetricsRegistry()
        handle = reg.counter("cached")
        handle.inc(10)
        reg.reset()
        assert handle.value == 0
        assert reg.counter("cached") is handle
        handle.inc()
        assert reg.snapshot()["counters"]["cached"] == 1


class TestDefaultRegistry:
    def test_module_helpers_hit_default_registry(self):
        counter("unit.test").inc(2)
        histogram("unit.secs").observe(1.5)
        snap = snapshot()
        assert snap["counters"]["unit.test"] == 2
        assert snap["histograms"]["unit.secs"]["count"] == 1
        assert get_registry().counter("unit.test").value == 2

    def test_reset_helper(self):
        handle = counter("unit.test")
        handle.inc(5)
        reset()
        assert handle.value == 0


class TestPipelineInstrumentation:
    def test_cascade_simulations_counted(self, karate):
        from repro.cascade.ic import IndependentCascade
        from repro.cascade.simulate import estimate_competitive_spread
        from repro.exec import Executor

        # Cascade-level metrics live in whichever process runs the
        # simulation; pin a serial executor so they land in this registry
        # regardless of the REPRO_BACKEND the suite runs under.
        estimate_competitive_spread(
            karate,
            IndependentCascade(0.2),
            [[0], [33]],
            rounds=7,
            rng=0,
            executor=Executor("serial"),
        )
        snap = snapshot()
        assert snap["counters"]["cascade.simulations"] == 7
        # Every simulation activates at least its two seeds.
        assert snap["counters"]["cascade.nodes_activated"] >= 2 * 7

    def test_payoff_table_profiles_counted(self, karate):
        from repro.algorithms.heuristics import HighDegree, RandomSeeds
        from repro.cascade.ic import IndependentCascade
        from repro.core.payoff import estimate_payoff_table
        from repro.core.strategy import StrategySpace

        space = StrategySpace([HighDegree(), RandomSeeds()])
        estimate_payoff_table(
            karate,
            IndependentCascade(0.1),
            space,
            num_groups=2,
            k=2,
            rounds=2,
            rng=0,
            symmetry="full",
        )
        # Full enumeration: z^r = 2 strategies ^ 2 groups = 4 profiles.
        assert snapshot()["counters"]["payoff.profiles_estimated"] == 4


class TestThreadSafety:
    def test_concurrent_counter_and_histogram_updates(self):
        import threading

        registry = MetricsRegistry()
        c = registry.counter("hits")
        h = registry.histogram("lat")
        per_thread, threads = 2000, 8

        def work():
            for _ in range(per_thread):
                c.inc()
                h.observe(1.0)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert c.value == per_thread * threads
        assert h.count == per_thread * threads
        assert h.total == per_thread * threads

    def test_concurrent_instrument_creation_is_deduplicated(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("shared"))

        pool = [threading.Thread(target=create) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestStateDeltas:
    def test_counter_delta_and_merge(self):
        from repro.obs.metrics import delta_state

        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        before = registry.snapshot()
        registry.counter("jobs").inc(2)
        registry.counter("fresh").inc()
        delta = delta_state(before, registry.snapshot())
        assert delta["counters"] == {"jobs": 2.0, "fresh": 1.0}

        target = MetricsRegistry()
        target.counter("jobs").inc(10)
        target.merge_delta(delta)
        assert target.counter("jobs").value == 12
        assert target.counter("fresh").value == 1

    def test_histogram_window_delta_reconstructs_tail(self):
        from repro.obs.metrics import delta_state

        registry = MetricsRegistry()
        h = registry.histogram("lat")
        idle = registry.histogram("idle")
        for v in (4.0, 1.0):
            h.observe(v)
        idle.observe(2.0)
        before = registry.snapshot()
        tail = (2.0, 3.0, 7.5)
        for v in tail:
            h.observe(v)
        delta = delta_state(before, registry.snapshot())
        # Only instruments that moved appear in the (sparse) delta.
        assert delta["histograms"] == {"lat": {"count": 3, "total": 12.5}}

        target = MetricsRegistry()
        target.merge_delta(delta)
        merged = target.histogram("lat")
        assert (merged.count, merged.total) == (3, 12.5)

    def test_registry_state_roundtrips_through_merge(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("c").observe(1.0)
        registry.histogram("c").observe(9.0)

        from repro.obs.metrics import delta_state

        delta = delta_state(MetricsRegistry().snapshot(), registry.snapshot())
        clone = MetricsRegistry()
        clone.merge_delta(delta)
        assert clone.snapshot() == registry.snapshot()
