"""Tests for the incremental layer: stable snapshot sampling, the warm-pool
splice, CELF seed-set repair, and the IncrementalSession end to end."""

import numpy as np
import pytest

from repro.cache import clear_caches, shard_memo
from repro.cache.memo import Memo
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.pools import SnapshotPool
from repro.cascade.snapshots import (
    SnapshotOracle,
    sample_stable_snapshots,
    stable_edge_draws,
)
from repro.cascade.wc import WeightedCascade
from repro.errors import CascadeError, GraphError
from repro.exec.executor import build_executor
from repro.graphs.delta import EdgeDelta, merge_delta
from repro.graphs.generators import erdos_renyi
from repro.incremental import (
    INCREMENTAL_ENV_VAR,
    IncrementalSession,
    incremental_enabled,
    incremental_requested,
)
from repro.utils.bitset import unpack_bits
from repro.utils.rng import as_rng


MODEL = IndependentCascade(0.15)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def graph_and_delta(seed=42, n=60):
    rng = as_rng(seed)
    graph = erdos_renyi(n, 4 * n, rng=rng)
    src, dst = graph.edge_array()
    idx = rng.choice(graph.num_edges, size=4, replace=False)
    removed = [(int(src[i]), int(dst[i])) for i in idx]
    added = []
    while len(added) < 4:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            added.append((u, v))
    return graph, EdgeDelta.of(added=added, removed=removed)


class TestStableEdgeDraws:
    def test_pure_function_of_inputs(self):
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 0], dtype=np.int64)
        np.testing.assert_array_equal(
            stable_edge_draws(7, 3, src, dst), stable_edge_draws(7, 3, src, dst)
        )

    def test_independent_of_other_edges(self):
        src = np.array([5, 9, 2], dtype=np.int64)
        dst = np.array([6, 1, 3], dtype=np.int64)
        full = stable_edge_draws(11, 0, src, dst)
        np.testing.assert_array_equal(
            full[1:], stable_edge_draws(11, 0, src[1:], dst[1:])
        )

    def test_seed_and_index_decorrelate(self):
        src = np.arange(100, dtype=np.int64)
        dst = (src + 1) % 100
        assert not np.array_equal(
            stable_edge_draws(1, 0, src, dst), stable_edge_draws(2, 0, src, dst)
        )
        assert not np.array_equal(
            stable_edge_draws(1, 0, src, dst), stable_edge_draws(1, 1, src, dst)
        )

    def test_uniform_range(self):
        src = np.arange(5000, dtype=np.int64)
        dst = (src * 7 + 1) % 5001
        draws = stable_edge_draws(3, 0, src, dst)
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.05


class TestStableSampling:
    def test_deterministic(self):
        graph, _ = graph_and_delta()
        a = sample_stable_snapshots(graph, MODEL, 3, seed=9)
        b = sample_stable_snapshots(graph, MODEL, 3, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_start_offsets_splittable(self):
        graph, _ = graph_and_delta()
        whole = sample_stable_snapshots(graph, MODEL, 4, seed=5)
        head = sample_stable_snapshots(graph, MODEL, 2, seed=5)
        tail = sample_stable_snapshots(graph, MODEL, 2, seed=5, start=2)
        for x, y in zip(whole, head + tail):
            np.testing.assert_array_equal(x, y)

    def test_packed_matches_boolean(self):
        graph, _ = graph_and_delta()
        plain = sample_stable_snapshots(graph, MODEL, 2, seed=5)
        packed = sample_stable_snapshots(graph, MODEL, 2, seed=5, packed=True)
        for mask, words in zip(plain, packed):
            np.testing.assert_array_equal(
                mask, unpack_bits(words, graph.num_edges)
            )

    def test_memo_path_bit_identical(self):
        graph, _ = graph_and_delta()
        memo = Memo("test-stable")
        cold = sample_stable_snapshots(graph, MODEL, 3, seed=5)
        warmed = sample_stable_snapshots(graph, MODEL, 3, seed=5, memo=memo)
        served = sample_stable_snapshots(graph, MODEL, 3, seed=5, memo=memo)
        assert len(memo) > 0
        for c, w, s in zip(cold, warmed, served):
            np.testing.assert_array_equal(c, w)
            np.testing.assert_array_equal(c, s)

    def test_delta_stability_through_memo(self):
        """Clean shards of a patched graph are served from the parent's
        memo entries; the spliced sample equals a cold sample end to end."""
        graph, delta = graph_and_delta()
        child = merge_delta(graph, delta).graph
        memo = Memo("test-stable", capacity=4096)
        sample_stable_snapshots(graph, MODEL, 3, seed=5, memo=memo)
        entries_after_parent = len(memo)
        warm = sample_stable_snapshots(child, MODEL, 3, seed=5, memo=memo)
        cold = sample_stable_snapshots(child, MODEL, 3, seed=5)
        for w, c in zip(warm, cold):
            np.testing.assert_array_equal(w, c)
        # Only dirty shards added new entries.
        assert len(memo) < 2 * entries_after_parent

    def test_wc_probabilities_key_the_memo(self):
        """WC probabilities depend on in-degrees, so a delta that changes a
        destination's in-degree must not be served a stale shard sample."""
        graph, delta = graph_and_delta()
        child = merge_delta(graph, delta).graph
        model = WeightedCascade()
        memo = Memo("test-stable", capacity=4096)
        sample_stable_snapshots(graph, model, 2, seed=5, memo=memo)
        warm = sample_stable_snapshots(child, model, 2, seed=5, memo=memo)
        cold = sample_stable_snapshots(child, model, 2, seed=5)
        for w, c in zip(warm, cold):
            np.testing.assert_array_equal(w, c)

    def test_lt_model_rejected(self):
        graph, _ = graph_and_delta()
        with pytest.raises(CascadeError, match="stable"):
            sample_stable_snapshots(graph, LinearThreshold(), 1, seed=5)

    def test_bad_count_rejected(self):
        graph, _ = graph_and_delta()
        with pytest.raises(CascadeError):
            sample_stable_snapshots(graph, MODEL, 0, seed=5)


class TestStablePools:
    def test_same_seed_pools_agree(self):
        """Two stable pools with one identity seed sample identical masks;
        a different identity seed diverges."""
        graph, _ = graph_and_delta()
        a = SnapshotPool(graph, stable=True, seed=123).masks(MODEL, 3)
        b = SnapshotPool(graph, stable=True, seed=123).masks(MODEL, 3)
        c = SnapshotPool(graph, stable=True, seed=124).masks(MODEL, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_sharded_gains_backend_invariant(self, backend):
        graph, _ = graph_and_delta()
        baseline = SnapshotPool(
            graph, stable=True, shards=1, seed=7
        ).initial_gains(MODEL, 4)
        sharded = SnapshotPool(
            graph, stable=True, shards=3, seed=7
        ).initial_gains(MODEL, 4, executor=build_executor(backend, workers=2))
        assert sharded == baseline

    def test_warm_pool_splices_to_cold(self):
        graph, delta = graph_and_delta()
        child = merge_delta(graph, delta).graph
        SnapshotPool(graph, stable=True, seed=11).masks(MODEL, 3)
        warm = SnapshotPool(child, stable=True, seed=11).masks(MODEL, 3)
        clear_caches()
        cold = SnapshotPool(child, stable=True, seed=11).masks(MODEL, 3)
        for w, c in zip(warm, cold):
            np.testing.assert_array_equal(w, c)


class TestRepairCelf:
    def _oracle_and_gains(self, graph, seed=3, count=4):
        masks = sample_stable_snapshots(graph, MODEL, count, seed=seed)
        oracle = SnapshotOracle(graph, masks)
        from repro.cascade.reachability import all_reach_sizes

        reach = np.stack([all_reach_sizes(graph, m) for m in masks])
        return oracle, [float(g) for g in reach.mean(axis=0)]

    def test_repair_matches_cold_selection(self):
        from repro.algorithms.greedy import repair_celf, run_celf

        graph, delta = graph_and_delta(seed=60)
        oracle, gains = self._oracle_and_gains(graph)
        _, trace = run_celf(oracle, 5, gains)

        child = merge_delta(graph, delta).graph
        oracle2, gains2 = self._oracle_and_gains(child)
        outcome = repair_celf(oracle2, 5, gains2, trace)
        cold_seeds, _ = run_celf(oracle2, 5, gains2)
        assert not outcome.fallback
        assert outcome.seeds == cold_seeds

    def test_unchanged_oracle_repairs_at_full_depth(self):
        from repro.algorithms.greedy import repair_celf, run_celf

        graph, _ = graph_and_delta(seed=61)
        oracle, gains = self._oracle_and_gains(graph)
        seeds, trace = run_celf(oracle, 4, gains)
        outcome = repair_celf(oracle, 4, gains, trace)
        assert outcome.seeds == seeds
        # The dominance bound certifies at least the top pick without
        # re-running greedy; deeper picks re-derive but stay identical.
        assert outcome.repair_depth >= 1
        assert not outcome.fallback

    def test_budget_exhaustion_sets_fallback(self):
        from repro.algorithms.greedy import repair_celf, run_celf

        graph, delta = graph_and_delta(seed=62)
        oracle, gains = self._oracle_and_gains(graph)
        _, trace = run_celf(oracle, 5, gains)
        child = merge_delta(graph, delta).graph
        oracle2, gains2 = self._oracle_and_gains(child)
        outcome = repair_celf(oracle2, 5, gains2, trace, budget=1)
        assert outcome.fallback
        assert outcome.evaluations <= 1


class TestIncrementalSession:
    def test_select_then_deltas_match_cold_comparator(self):
        graph, delta = graph_and_delta(seed=70)
        session = IncrementalSession(
            graph, MODEL, num_snapshots=3, rng=1
        )
        session.select(4)
        outcome = session.apply_delta(delta)
        result = session.reselect(4)
        assert len(result.seeds) == 4
        assert len(outcome.invalidation.dirty_shards) < outcome.invalidation.num_shards

        clear_caches()
        comparator = IncrementalSession(
            session.graph,
            MODEL,
            num_snapshots=3,
            pool_seed=session.pool_seed,
        )
        assert list(result.seeds) == comparator.select(4)
        np.testing.assert_array_equal(session._reach, comparator._reach)

    def test_successive_deltas_stay_exact(self):
        graph, _ = graph_and_delta(seed=71)
        session = IncrementalSession(graph, MODEL, num_snapshots=2, rng=2)
        session.select(3)
        rng = as_rng(99)
        for _ in range(3):
            src, dst = session.graph.edge_array()
            i = int(rng.integers(0, session.graph.num_edges))
            u, v = int(rng.integers(0, 60)), int(rng.integers(0, 60))
            delta = EdgeDelta.of(
                added=[(u, v)] if u != v else [],
                removed=[(int(src[i]), int(dst[i]))],
            )
            session.apply_delta(delta)
            result = session.reselect(3)
            clear_caches()
            comparator = IncrementalSession(
                session.graph,
                MODEL,
                num_snapshots=2,
                pool_seed=session.pool_seed,
            )
            assert list(result.seeds) == comparator.select(3)

    def test_kill_switch_forces_cold_paths(self, monkeypatch):
        graph, delta = graph_and_delta(seed=72)
        session = IncrementalSession(graph, MODEL, num_snapshots=2, rng=3)
        warm_seeds = session.select(3)
        monkeypatch.setenv(INCREMENTAL_ENV_VAR, "off")
        outcome = session.apply_delta(delta)
        assert all(outcome.full_recompute)
        assert not outcome.incremental
        result = session.reselect(3)
        assert not result.repaired

        monkeypatch.delenv(INCREMENTAL_ENV_VAR)
        clear_caches()
        comparator = IncrementalSession(
            session.graph, MODEL, num_snapshots=2, pool_seed=session.pool_seed
        )
        assert list(result.seeds) == comparator.select(3)
        assert len(warm_seeds) == 3

    def test_reselect_without_trace_is_cold(self):
        graph, _ = graph_and_delta(seed=73)
        session = IncrementalSession(graph, MODEL, num_snapshots=2, rng=4)
        result = session.reselect(3)
        assert not result.repaired and not result.fallback
        assert list(result.seeds) == session.select(3)

    def test_journal_params(self):
        graph, _ = graph_and_delta(seed=74)
        session = IncrementalSession(
            graph, MODEL, num_snapshots=2, num_shards=8
        )
        assert session.journal_params() == {"shards": 8}

    def test_constructor_validation(self):
        graph, _ = graph_and_delta(seed=75)
        with pytest.raises(GraphError, match="num_snapshots"):
            IncrementalSession(graph, MODEL, num_snapshots=0)
        with pytest.raises(GraphError, match="recompute_fraction"):
            IncrementalSession(graph, MODEL, recompute_fraction=0.0)

    def test_pool_seed_pinned(self):
        graph, _ = graph_and_delta(seed=76)
        session = IncrementalSession(graph, MODEL, pool_seed=987)
        assert session.pool_seed == 987


class TestEnvParsing:
    @pytest.mark.parametrize(
        ("raw", "enabled", "requested"),
        [
            (None, True, False),
            ("", True, False),
            ("1", True, True),
            ("on", True, True),
            ("TRUE", True, True),
            ("0", False, False),
            ("off", False, False),
            (" no ", False, False),
        ],
    )
    def test_both_views(self, monkeypatch, raw, enabled, requested):
        if raw is None:
            monkeypatch.delenv(INCREMENTAL_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(INCREMENTAL_ENV_VAR, raw)
        assert incremental_enabled() is enabled
        assert incremental_requested() is requested


class TestShardMemoIntegration:
    def test_session_populates_shared_shard_memo(self):
        graph, delta = graph_and_delta(seed=80)
        session = IncrementalSession(graph, MODEL, num_snapshots=2, rng=5)
        session.select(3)
        assert len(shard_memo()) > 0
        before = len(shard_memo())
        session.apply_delta(delta)
        # Dirty shards re-keyed; clean-shard entries were reused, not duplicated.
        assert len(shard_memo()) > before
        assert len(shard_memo()) < 2 * before
