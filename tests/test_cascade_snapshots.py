"""Tests for live-edge snapshots, the spread oracle, and reachability DP."""

import numpy as np
import pytest

from repro.cascade.ic import IndependentCascade
from repro.cascade.reachability import all_reach_sizes
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.utils.bitset import pack_bits
from repro.utils.rng import as_rng


class TestSampleSnapshots:
    def test_count_and_shape(self, karate):
        masks = sample_snapshots(karate, IndependentCascade(0.2), 5, rng=0)
        assert len(masks) == 5
        assert all(mask.shape == (karate.num_edges,) for mask in masks)

    def test_p_extremes(self, karate):
        full = sample_snapshots(karate, IndependentCascade(1.0), 1, rng=0)[0]
        empty = sample_snapshots(karate, IndependentCascade(0.0), 1, rng=0)[0]
        assert full.all()
        assert not empty.any()

    def test_live_fraction_matches_p(self, karate):
        masks = sample_snapshots(karate, IndependentCascade(0.3), 50, rng=1)
        fraction = np.mean([m.mean() for m in masks])
        assert fraction == pytest.approx(0.3, abs=0.03)

    def test_zero_count_rejected(self, karate):
        with pytest.raises(CascadeError, match="positive"):
            sample_snapshots(karate, IndependentCascade(0.1), 0)


class TestSnapshotOracle:
    def test_requires_masks(self, karate):
        with pytest.raises(CascadeError, match="at least one"):
            SnapshotOracle(karate, [])

    def test_mask_shape_checked(self, karate):
        with pytest.raises(CascadeError, match="does not match"):
            SnapshotOracle(karate, [np.ones(3, dtype=bool)])

    def test_spread_on_full_mask_is_reachability(self, karate):
        mask = np.ones(karate.num_edges, dtype=bool)
        oracle = SnapshotOracle(karate, [mask])
        assert oracle.spread([0]) == karate.num_nodes  # connected

    def test_spread_on_empty_mask_is_seed_count(self, karate):
        mask = np.zeros(karate.num_edges, dtype=bool)
        oracle = SnapshotOracle(karate, [mask])
        assert oracle.spread([0, 1, 2]) == 3

    def test_spread_averages_masks(self, path_graph):
        full = np.ones(path_graph.num_edges, dtype=bool)
        empty = np.zeros(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [full, empty])
        assert oracle.spread([0]) == pytest.approx((5 + 1) / 2)

    def test_marginal_gain_of_reached_node_is_zero(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([0])
        assert oracle.marginal_gain(3, reached) == 0.0

    def test_marginal_gain_counts_new_only(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([3])  # reaches 3, 4
        # Adding node 0 newly reaches 0, 1, 2 (3 and 4 already covered).
        assert oracle.marginal_gain(0, reached) == 3.0

    def test_extend_reach_mutates(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([])
        assert not reached[0].any()
        oracle.extend_reach(reached, 2)
        assert reached[0].tolist() == [False, False, True, True, True]

    def test_greedy_identity_spread_equals_sum_of_gains(self, karate):
        # sigma(S) accumulated via marginal gains equals direct evaluation.
        masks = sample_snapshots(karate, IndependentCascade(0.15), 10, rng=3)
        oracle = SnapshotOracle(karate, masks)
        seeds = [0, 33, 5]
        reached = oracle.reach([])
        total = 0.0
        for s in seeds:
            total += oracle.marginal_gain(s, reached)
            oracle.extend_reach(reached, s)
        assert total == pytest.approx(oracle.spread(seeds))


class TestBatchedOracleSweeps:
    """The batched sweeps against one ``reachable_from`` BFS per snapshot."""

    @pytest.fixture(params=[False, True], ids=["bool", "packed"])
    def setup(self, request):
        graph = erdos_renyi(50, 200, rng=4)
        masks = sample_snapshots(graph, IndependentCascade(0.3), 7, rng=9)
        oracle = SnapshotOracle(
            graph, [pack_bits(m) for m in masks] if request.param else masks
        )
        return graph, masks, oracle

    def test_reach_is_one_snapshot_by_node_array(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([1, 8])
        assert reached.shape == (len(masks), graph.num_nodes)
        assert reached.dtype == bool
        for row, mask in zip(reached, masks):
            np.testing.assert_array_equal(row, graph.reachable_from([1, 8], mask))

    def test_marginal_gain_matches_per_snapshot_bfs(self, setup):
        graph, masks, oracle = setup
        seeds = [3, 17]
        reached = oracle.reach(seeds)
        before = reached.copy()
        for candidate in range(graph.num_nodes):
            expected = sum(
                int(
                    (
                        graph.reachable_from(seeds + [candidate], mask)
                        & ~graph.reachable_from(seeds, mask)
                    ).sum()
                )
                for mask in masks
            ) / len(masks)
            assert oracle.marginal_gain(candidate, reached) == expected
            np.testing.assert_array_equal(reached, before)

    def test_extend_reach_is_bfs_union(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([5])
        oracle.extend_reach(reached, 22)
        oracle.extend_reach(reached, 40)
        for row, mask in zip(reached, masks):
            expected = graph.reachable_from([5], mask) | graph.reachable_from(
                [22], mask
            ) | graph.reachable_from([40], mask)
            np.testing.assert_array_equal(row, expected)

    def test_bad_candidate_and_shape_rejected(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([])
        with pytest.raises(GraphError, match="out of range"):
            oracle.marginal_gain(graph.num_nodes, reached)
        with pytest.raises(CascadeError, match="does not match"):
            oracle.extend_reach(reached[:1], 0)


    def test_batched_gains_equal_scalar_calls(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([3, 17])
        candidates = np.arange(graph.num_nodes)
        gains = oracle.marginal_gain(candidates, reached)
        assert isinstance(gains, np.ndarray)
        assert gains.shape == (graph.num_nodes,)
        for candidate, gain in zip(candidates, gains):
            scalar = oracle.marginal_gain(int(candidate), reached)
            assert isinstance(scalar, float)
            assert gain == scalar

    def test_duplicates_and_already_reached_candidates(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([3])
        # Partially reached: reached in some snapshots but not all.
        counts = reached.sum(axis=0)
        partial = int(np.flatnonzero((counts > 0) & (counts < len(masks)))[0])
        everywhere = 3
        free = int(np.flatnonzero(counts == 0)[0])
        candidates = [free, partial, everywhere, free, partial]
        gains = oracle.marginal_gain(candidates, reached)
        expected = [oracle.marginal_gain(c, reached) for c in candidates]
        assert gains.tolist() == expected
        assert gains[2] == 0.0
        assert gains[0] == gains[3] and gains[1] == gains[4]

    def test_reached_is_byte_identical_afterwards(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([5, 9])
        before = reached.tobytes()
        oracle.marginal_gain(np.arange(graph.num_nodes), reached)
        oracle.marginal_gain(11, reached)
        assert reached.tobytes() == before

    def test_out_of_range_candidates_in_a_batch_raise(self, setup):
        graph, masks, oracle = setup
        reached = oracle.reach([])
        with pytest.raises(GraphError, match="out of range"):
            oracle.marginal_gain([0, graph.num_nodes], reached)
        with pytest.raises(GraphError, match="out of range"):
            oracle.marginal_gain(np.array([-1, 2]), reached)

    def test_extend_reach_rejects_a_non_contiguous_array(self, setup):
        graph, masks, oracle = setup
        reached = np.asfortranarray(oracle.reach([]))
        with pytest.raises(CascadeError, match="C-contiguous"):
            oracle.extend_reach(reached, 0)

    def test_empty_batch_returns_no_gains(self, setup):
        graph, masks, oracle = setup
        gains = oracle.marginal_gain(np.array([], dtype=np.int64), oracle.reach([]))
        assert gains.shape == (0,)


class TestAllReachSizes:
    def test_path(self, path_graph):
        sizes = all_reach_sizes(path_graph)
        assert sizes.tolist() == [5, 4, 3, 2, 1]

    def test_cycle_everyone_reaches_all(self, cycle_graph):
        assert all_reach_sizes(cycle_graph).tolist() == [4, 4, 4, 4]

    def test_diamond(self, diamond_graph):
        assert all_reach_sizes(diamond_graph).tolist() == [4, 2, 2, 1]

    def test_empty_graph(self):
        assert all_reach_sizes(DiGraph(0, [])).size == 0

    def test_isolated_nodes(self):
        g = DiGraph(3, [])
        assert all_reach_sizes(g).tolist() == [1, 1, 1]

    def test_respects_edge_mask(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        mask[path_graph.out_edge_ids(1)[0]] = False
        sizes = all_reach_sizes(path_graph, mask)
        assert sizes.tolist() == [2, 1, 3, 2, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_bfs_on_random_graphs(self, seed):
        graph = erdos_renyi(40, 120, rng=seed)
        rng = as_rng(seed)
        mask = rng.random(graph.num_edges) < 0.5
        sizes = all_reach_sizes(graph, mask)
        for v in range(graph.num_nodes):
            expected = int(graph.reachable_from([v], mask).sum())
            assert sizes[v] == expected

    def test_matches_bfs_with_dense_sccs(self):
        # Two 3-cycles joined by a bridge: SCC condensation is exercised.
        g = DiGraph(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        sizes = all_reach_sizes(g)
        assert sizes.tolist() == [6, 6, 6, 3, 3, 3]

    def test_stack_shape_checked(self, path_graph):
        with pytest.raises(CascadeError, match="does not match"):
            all_reach_sizes(path_graph, np.ones((2, path_graph.num_edges + 1), dtype=bool))

    def test_deep_condensation_dag(self):
        # A 300-node path of 2-cycles with shortcut arcs: hundreds of Kahn
        # levels, each component reaching everything downstream.
        edges = []
        for i in range(0, 300, 2):
            edges += [(i, i + 1), (i + 1, i)]
            if i + 2 < 300:
                edges.append((i + 1, i + 2))
            if i + 5 < 300:
                edges.append((i, i + 5))
        g = DiGraph(300, edges)
        sizes = all_reach_sizes(g)
        assert sizes.tolist() == [300 - 2 * (v // 2) for v in range(300)]
