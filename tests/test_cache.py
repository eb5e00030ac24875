"""Tests for the repro.cache work-sharing layer.

Covers the :class:`~repro.cache.Memo` container, the content-derived keys,
the ``SeedSelector.select`` memo (hits restore the post-selection RNG state,
so warm runs are bit-identical to cold ones), the ``select_blockers`` memo,
and cross-backend determinism of the whole pooled + reduced + cached
pipeline.
"""

import numpy as np
import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.greedy import MixGreedy
from repro.algorithms.heuristics import RandomSeeds
from repro.cache import (
    Memo,
    clear_caches,
    freeze,
    params_token,
    rng_state,
    rng_token,
    set_rng_state,
)
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.core.blocking import select_blockers
from repro.core.getreal import get_real
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec.executor import Executor
from repro.graphs.digraph import DiGraph
from repro.obs.journal import RunJournal, attached, read_journal
from repro.obs.metrics import counter

_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate every test from cache state left by earlier tests."""
    clear_caches()
    yield
    clear_caches()


class TestMemo:
    def test_miss_then_hit(self):
        memo = Memo("t1")
        assert memo.get(("a", 1)) is None
        memo.put(("a", 1), [1, 2, 3])
        assert memo.get(("a", 1)) == [1, 2, 3]
        assert len(memo) == 1

    def test_fifo_eviction_at_capacity(self):
        memo = Memo("t2", capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("a") is None  # oldest entry evicted first
        assert memo.get("b") == 2
        assert memo.get("c") == 3

    def test_clear(self):
        memo = Memo("t3")
        memo.put("a", 1)
        memo.clear()
        assert len(memo) == 0
        assert memo.get("a") is None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Memo("t5", capacity=0)

    def test_hit_and_miss_counters(self):
        memo = Memo("t6")
        h0, m0 = _HITS.value, _MISSES.value
        memo.get("k")
        memo.put("k", 1)
        memo.get("k")
        assert _MISSES.value - m0 == 1
        assert _HITS.value - h0 == 1


class TestKeys:
    def test_params_token_distinguishes_parameters(self):
        assert params_token(DegreeDiscount(0.1)) != params_token(DegreeDiscount(0.2))
        assert params_token(DegreeDiscount(0.1)) == params_token(DegreeDiscount(0.1))

    def test_params_token_ignores_executor(self):
        model = IndependentCascade(0.1)
        serial = MixGreedy(model, num_snapshots=10, executor=Executor("serial"))
        with Executor("process", workers=2) as ex:
            pooled = MixGreedy(model, num_snapshots=10, executor=ex)
            assert params_token(serial) == params_token(pooled)

    def test_freeze_handles_arrays_and_containers(self):
        a = freeze({"x": np.arange(3), "y": [1, (2, 3)]})
        b = freeze({"y": [1, (2, 3)], "x": np.arange(3)})
        assert a == b
        assert freeze(np.arange(3)) != freeze(np.arange(4))

    def test_rng_token_tracks_stream_position(self):
        gen = np.random.default_rng(5)
        before = rng_token(gen)
        gen.integers(100)
        assert rng_token(gen) != before

    def test_set_rng_state_round_trips(self):
        gen = np.random.default_rng(5)
        state = rng_state(gen)
        first = gen.integers(1_000_000)
        set_rng_state(gen, state)
        assert gen.integers(1_000_000) == first


class TestSelectionCache:
    def test_warm_replay_is_bit_identical(self, karate):
        # Two sequential selections on one generator, then the same pair on
        # a fresh generator with the same seed: the second pass must hit the
        # cache, return the same seed sets, AND leave the generator in the
        # same stream position (hits restore the post-selection state).
        selector = RandomSeeds()
        gen = np.random.default_rng(11)
        first = selector.select(karate, 3, gen)
        second = selector.select(karate, 3, gen)
        tail = gen.integers(1_000_000)

        h0 = _HITS.value
        gen2 = np.random.default_rng(11)
        assert selector.select(karate, 3, gen2) == first
        assert selector.select(karate, 3, gen2) == second
        assert gen2.integers(1_000_000) == tail
        assert _HITS.value - h0 == 2

    def test_sequential_draws_stay_distinct_when_warm(self, karate):
        # Theorem 1: two groups playing the same randomized strategy must
        # keep distinct seed sets — also on a warm cache, where both
        # selections replay from the memo (the RNG token differs between
        # the first and second draw, so they hit different entries).
        selector = RandomSeeds()
        first = selector.select(karate, 3, np.random.default_rng(11))
        gen = np.random.default_rng(11)
        a = selector.select(karate, 3, gen)
        b = selector.select(karate, 3, gen)
        assert a == first  # warm replay
        assert a != b

    def test_patched_graph_never_hits_parent_entries(self, karate):
        # Keys lead with the graph fingerprint, so an edge edit needs no
        # invalidation: the patched graph's lookups miss the parent's entries.
        selector = DegreeDiscount(0.1)
        selector.select(karate, 3, np.random.default_rng(5))
        edges = [e for e in karate.edges() if e != (0, 1)] + [(0, 33)]
        patched = DiGraph(karate.num_nodes, edges)
        assert patched.fingerprint != karate.fingerprint
        h0 = _HITS.value
        selector.select(patched, 3, np.random.default_rng(5))
        assert _HITS.value == h0
        selector.select(karate, 3, np.random.default_rng(5))
        assert _HITS.value == h0 + 1

    def test_no_caching_without_rng(self, karate):
        h0, m0 = _HITS.value, _MISSES.value
        DegreeDiscount(0.1).select(karate, 3)
        DegreeDiscount(0.1).select(karate, 3)
        assert _HITS.value == h0
        assert _MISSES.value == m0

    def test_pooled_selection_cache_replays_pool_token(self, karate):
        # A pooled snapshot selection must replay from cache with a fresh
        # pool: the pool token (one draw from the caller's generator) is
        # consumed on both cold and warm paths, keeping streams aligned.
        model = IndependentCascade(0.1)
        mg = MixGreedy(model, num_snapshots=10)
        gen = np.random.default_rng(21)
        cold = mg.select(karate, 3, gen, pool=SnapshotPool(karate))
        tail = gen.integers(1_000_000)

        h0 = _HITS.value
        gen2 = np.random.default_rng(21)
        warm = mg.select(karate, 3, gen2, pool=SnapshotPool(karate))
        assert warm == cold
        assert gen2.integers(1_000_000) == tail
        assert _HITS.value - h0 == 1

    def test_hit_emits_journal_event(self, karate, tmp_path):
        selector = DegreeDiscount(0.1)
        selector.select(karate, 3, np.random.default_rng(4))
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal, attached(journal):
            selector.select(karate, 3, np.random.default_rng(4))
        events = read_journal(path)
        cache_events = [e for e in events if e["event"] == "cache"]
        assert any(
            e["namespace"] == "selection" and e["op"] == "hit"
            for e in cache_events
        )


class TestGetRealWarmRuns:
    def test_repeated_run_hits_cache_and_matches(self, karate):
        space = StrategySpace([DegreeDiscount(0.1), RandomSeeds()])
        model = IndependentCascade(0.1)
        cold = get_real(karate, model, space, k=3, rounds=6, rng=7)
        h0 = _HITS.value
        warm = get_real(karate, model, space, k=3, rounds=6, rng=7)
        assert _HITS.value - h0 > 0
        assert warm.kind == cold.kind
        np.testing.assert_array_equal(
            np.asarray(warm.mixture.probabilities),
            np.asarray(cold.mixture.probabilities),
        )
        np.testing.assert_array_equal(warm.game.payoffs, cold.game.payoffs)


class TestBlockingCache:
    def test_warm_blocking_run_matches_cold(self, random_graph):
        model = IndependentCascade(0.15)
        kwargs = dict(
            rival_seeds=[0, 1], k=2, rounds=4, candidate_pool=15, rng=13
        )
        cold = select_blockers(random_graph, model, **kwargs)
        h0 = _HITS.value
        warm = select_blockers(random_graph, model, **kwargs)
        assert _HITS.value - h0 == 1
        assert warm.blockers == cold.blockers
        assert warm.rival_spread_after == cold.rival_spread_after


class TestCrossBackendDeterminism:
    def _table(self, executor, karate):
        model = IndependentCascade(0.1)
        space = StrategySpace(
            [
                MixGreedy(model, num_snapshots=10, executor=executor),
                DegreeDiscount(0.1),
            ]
        )
        return estimate_payoff_table(
            karate,
            model,
            space,
            num_groups=2,
            k=3,
            rounds=6,
            rng=2015,
            executor=executor,
            symmetry="reduce",
        )

    def _flatten(self, table):
        return {
            profile: [(e.mean, e.std, e.samples) for e in ests]
            for profile, ests in table.estimates.items()
        }

    def test_serial_vs_process_with_pools_and_cache(self, karate):
        serial = self._flatten(self._table(Executor("serial"), karate))
        clear_caches()  # force the process run to recompute, not replay
        with Executor("process", workers=2) as ex:
            process = self._flatten(self._table(ex, karate))
        assert serial == process
