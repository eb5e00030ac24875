"""Tests for shared snapshot pools and the batched oracle.

Covers :class:`~repro.cascade.pools.SnapshotPool` sharing semantics (one
live-edge sample per (model, count) request served to every strategy of a
group), the Theorem-1 independence of per-group pools, the exactness of the
closure's gains on every backend and DP split, and the bit-identity of the
oracle's stacked reach against the sequential per-mask sweeps: the
``python`` reference walk (:meth:`~repro.graphs.digraph.DiGraph.reachable_from`)
and the ``numpy`` reach DP of a one-mask oracle.
"""

import numpy as np
import pytest

from repro.algorithms.base import SelectionJob
from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.greedy import MixGreedy, run_celf
from repro.cascade import reachability as reachability_mod
from repro.cascade import snapshots as snapshots_mod
from repro.cascade.ic import IndependentCascade
from repro.cascade.wc import WeightedCascade
from repro.cascade.pools import SnapshotPool
from repro.cascade.reachability import all_reach_sizes
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots, stack_masks
from repro.errors import CascadeError
from repro.exec import Executor
from repro.obs.metrics import counter
from repro.utils.bitset import count_bits, pack_bits
from tests.reference_selection import reach_sizes_by_bfs

_POOL_SAMPLES = counter("cascade.pool_samples")
_POOL_SHARED = counter("cascade.pool_shared")


def _sweep(name, graph, sources, mask):
    """One per-mask reachability sweep: the python walk or a one-mask oracle."""
    if name == "python":
        return graph.reachable_from(sources, mask)
    return SnapshotOracle(graph, [mask]).reach(sources)[0]


class TestSnapshotPool:
    def test_token_draws_once_and_is_stable(self, karate):
        pool = SnapshotPool(karate)
        assert not pool.seeded
        gen = np.random.default_rng(1)
        token = pool.token(gen)
        assert pool.seeded
        # Further token calls return the same value without consuming rng.
        before = gen.bit_generator.state
        assert pool.token(gen) == token
        assert gen.bit_generator.state == before

    def test_unseeded_pool_rejects_sampling(self, karate):
        pool = SnapshotPool(karate)
        with pytest.raises(CascadeError, match="unseeded"):
            pool.masks(IndependentCascade(0.1), 5)

    def test_masks_shared_per_request(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(2))
        model = IndependentCascade(0.1)
        s0, sh0 = _POOL_SAMPLES.value, _POOL_SHARED.value
        first = pool.masks(model, 6)
        second = pool.masks(model, 6)
        assert first is second
        assert _POOL_SAMPLES.value - s0 == 1
        assert _POOL_SHARED.value - sh0 == 1

    def test_equal_model_params_share_different_params_do_not(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(2))
        a = pool.masks(IndependentCascade(0.1), 6)
        b = pool.masks(IndependentCascade(0.1), 6)  # fresh but equal model
        c = pool.masks(IndependentCascade(0.2), 6)
        assert a is b
        assert c is not a

    def test_mask_content_is_request_order_independent(self, karate):
        model_a = IndependentCascade(0.1)
        model_b = IndependentCascade(0.3)
        one = SnapshotPool(karate)
        one.token(np.random.default_rng(9))
        two = SnapshotPool(karate)
        two.token(np.random.default_rng(9))
        first_a = one.masks(model_a, 4)
        one.masks(model_b, 4)
        two.masks(model_b, 4)  # opposite request order
        second_a = two.masks(model_a, 4)
        for x, y in zip(first_a, second_a):
            np.testing.assert_array_equal(x, y)

    def test_oracle_and_gains_are_memoized(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(3))
        model = IndependentCascade(0.1)
        assert pool.oracle(model, 6) is pool.oracle(model, 6)
        assert pool.initial_gains(model, 6) is pool.initial_gains(model, 6)

    def test_per_group_pools_are_independent(self, karate):
        # Theorem 1: each group draws its own live-edge sample, so two
        # groups playing the same strategy see different snapshots.
        gen = np.random.default_rng(4)
        group0 = SnapshotPool(karate)
        group0.token(gen)
        group1 = SnapshotPool(karate)
        group1.token(gen)
        model = IndependentCascade(0.2)
        masks0 = group0.masks(model, 8)
        masks1 = group1.masks(model, 8)
        assert any(
            not np.array_equal(a, b) for a, b in zip(masks0, masks1)
        )


class TestPooledSelection:
    def test_two_selectors_share_one_sample(self, karate):
        # Both consumers of the same group pool reuse the identical masks
        # and the identical batched initial gains, so on the same sample
        # they pick the same seeds.
        model = IndependentCascade(0.1)
        pool = SnapshotPool(karate)
        gen = np.random.default_rng(5)
        s0 = _POOL_SAMPLES.value
        first = MixGreedy(model, num_snapshots=12).select(karate, 3, gen, pool=pool)
        second = MixGreedy(model, num_snapshots=12).select(karate, 3, gen, pool=pool)
        assert _POOL_SAMPLES.value - s0 == 1  # one sample served both
        assert first == second

    def test_non_snapshot_selector_ignores_pool(self, karate):
        pool = SnapshotPool(karate)
        gen = np.random.default_rng(6)
        with_pool = DegreeDiscount(0.1).select(karate, 3, gen, pool=pool)
        without = DegreeDiscount(0.1).select(karate, 3, np.random.default_rng(6))
        assert with_pool == without
        assert not pool.seeded  # the pool was never touched

    def test_pooled_matches_gains_helper(self, karate):
        # The pool's gains are a private oracle's over the same masks.
        model = IndependentCascade(0.1)
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(7))
        masks = pool.masks(model, 10)
        direct = SnapshotOracle(karate, masks).initial_gains()
        assert pool.initial_gains(model, 10) == direct


_GAINS_EXECUTORS = [
    ("serial", 1),
    ("process", 1),
    ("process", 2),
    ("process", 3),
]


class TestGainsExactness:
    """Gains are the stack's integer reach totals divided once, on any backend.

    The pool reads its gains from the reach closure; a selection job on
    any backend and worker count rebuilds the same closure from the pool's
    token, so its CELF picks are those the pool's own gains give.
    """

    @pytest.fixture(
        scope="class", params=_GAINS_EXECUTORS, ids=lambda p: f"{p[0]}-{p[1]}"
    )
    def executor(self, request):
        with Executor(*request.param) as executor:
            yield executor

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 50])
    def test_gains_equal_exact_reach_totals(self, random_graph, executor, count):
        model = IndependentCascade(0.2)
        pool = SnapshotPool(random_graph)
        pool.token(np.random.default_rng(count))
        totals = np.sum(
            [reach_sizes_by_bfs(random_graph, mask) for mask in pool.masks(model, count)],
            axis=0,
        )
        gains = pool.initial_gains(model, count)
        assert gains == (totals / count).tolist()
        seeds, _ = run_celf(pool.oracle(model, count), 4, gains)
        job = SelectionJob(pool, (MixGreedy(model, count),), 4)
        (outcome,) = executor.run([job], rng=0)
        assert list(outcome.estimates[0].seeds[0]) == seeds


class TestReachDpBudget:
    """The oracle sizes its reach DPs by live arcs; no result moves."""

    def test_totals_equal_for_every_budget(self, random_graph, monkeypatch):
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 20, rng=5, packed=True
        )
        n = random_graph.num_nodes
        costs = [count_bits(m) + n for m in masks]
        dp_calls = []
        original = reachability_mod._closure_run

        def spy(graph, chunk, *args):
            dp_calls.append(len(chunk))
            return original(graph, chunk, *args)

        monkeypatch.setattr(reachability_mod, "_closure_run", spy)
        stack = stack_masks(masks, random_graph.num_edges)
        expected = [reach_sizes_by_bfs(random_graph, mask) for mask in masks]
        # A budget of one mask, of eight masks, and of everything.
        for budget, runs in [(1, 20), (sum(costs[:8]), 3), (1 << 40, 1)]:
            monkeypatch.setattr(snapshots_mod, "REACH_DP_BUDGET", budget)
            dp_calls.clear()
            oracle = SnapshotOracle(random_graph, masks)
            np.testing.assert_array_equal(oracle.closure.reach_sizes(), expected)
            assert oracle.initial_gains() == (np.sum(expected, axis=0) / 20).tolist()
            assert sum(dp_calls) == len(masks) and len(dp_calls) == runs
        np.testing.assert_array_equal(all_reach_sizes(random_graph, stack), expected)


class TestDefaultSampler:
    """Default-sampler models draw masks in blocks, bit for bit the per-mask loop."""

    @pytest.mark.parametrize("model", [IndependentCascade(0.2), WeightedCascade()], ids=["ic", "wc"])
    @pytest.mark.parametrize("packed", [False, True], ids=["bool", "packed"])
    def test_masks_and_end_state_match_per_mask_loop(self, random_graph, model, packed, monkeypatch):
        # A tiny block size also covers a sample split over several blocks.
        for block in (snapshots_mod._DRAWS_PER_BLOCK, 3 * random_graph.num_edges):
            monkeypatch.setattr(snapshots_mod, "_DRAWS_PER_BLOCK", block)
            blocked, looped = np.random.default_rng(8), np.random.default_rng(8)
            masks = sample_snapshots(random_graph, model, 10, blocked, packed=packed)
            expected = [model.sample_live_mask(random_graph, looped) for _ in range(10)]
            if packed:
                expected = [pack_bits(mask) for mask in expected]
            for got, want in zip(masks, expected, strict=True):
                np.testing.assert_array_equal(got, want)
            assert blocked.bit_generator.state == looped.bit_generator.state


class TestGainsInputChecks:
    def test_resolve_executor_names_offending_type(self):
        from repro.exec.executor import resolve_executor

        with pytest.raises(TypeError, match="expected an Executor or None, got dict"):
            resolve_executor({})

    def test_empty_mask_list_is_a_cascade_error(self, karate):
        with pytest.raises(CascadeError, match="at least one snapshot mask"):
            SnapshotOracle(karate, [])


class TestReachableMaskBatch:
    """The oracle's stacked reach, and the stacked reach DP's shape checks."""

    def _masks(self, graph, count, seed):
        return sample_snapshots(
            graph, IndependentCascade(0.3), count, np.random.default_rng(seed)
        )

    @pytest.mark.parametrize("sweep", ["python", "numpy"])
    def test_bit_identical_to_sequential_sweep(self, random_graph, sweep):
        masks = self._masks(random_graph, 7, 10)
        batch = SnapshotOracle(random_graph, masks).reach([0, 3])
        assert batch.shape == (7, random_graph.num_nodes)
        for s, mask in enumerate(masks):
            single = _sweep(sweep, random_graph, [0, 3], mask)
            np.testing.assert_array_equal(batch[s], single)

    def test_kernels_agree(self, random_graph):
        masks = self._masks(random_graph, 5, 11)
        batch = SnapshotOracle(random_graph, [pack_bits(m) for m in masks]).reach([1, 2])
        walks = np.stack([random_graph.reachable_from([1, 2], m) for m in masks])
        np.testing.assert_array_equal(batch, walks)

    def test_empty_matrix(self, random_graph):
        matrix = np.zeros((0, random_graph.num_edges), dtype=bool)
        sizes = all_reach_sizes(random_graph, matrix)
        assert sizes.shape == (0, random_graph.num_nodes)

    def test_shape_validation(self, random_graph):
        bad = np.zeros((3, random_graph.num_edges + 1), dtype=bool)
        with pytest.raises(CascadeError):
            all_reach_sizes(random_graph, bad)
        with pytest.raises(CascadeError):
            SnapshotOracle(random_graph, list(bad))


class TestBatchedOracle:
    @pytest.mark.parametrize("sweep", ["python", "numpy"])
    def test_spread_matches_per_mask_average(self, random_graph, sweep):
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 9, np.random.default_rng(12)
        )
        oracle = SnapshotOracle(random_graph, masks)
        seeds = [0, 5]
        expected = float(
            np.mean([_sweep(sweep, random_graph, seeds, mask).sum() for mask in masks])
        )
        assert oracle.spread(seeds) == pytest.approx(expected)

    def test_reach_rows_are_independent_and_writable(self, random_graph):
        # extend_reach mutates the returned rows in place; the batch sweep
        # must hand back per-snapshot rows that tolerate that.
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 4, np.random.default_rng(13)
        )
        oracle = SnapshotOracle(random_graph, masks)
        reached = oracle.reach([0])
        baseline = [row.copy() for row in oracle.reach([0])]
        oracle.extend_reach(reached, 7)
        for row, base in zip(baseline, oracle.reach([0])):
            np.testing.assert_array_equal(row, base)

    def test_kernel_independent_oracle(self, random_graph):
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 6, np.random.default_rng(14)
        )
        oracle = SnapshotOracle(random_graph, masks)
        walks = [random_graph.reachable_from([2, 3], mask) for mask in masks]
        assert oracle.spread([2, 3]) == float(np.mean([w.sum() for w in walks]))
        for row, mask in zip(oracle.reach([2]), masks):
            np.testing.assert_array_equal(row, random_graph.reachable_from([2], mask))
