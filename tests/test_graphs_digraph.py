"""Tests for repro.graphs.digraph.DiGraph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph


class TestConstruction:
    def test_counts(self, path_graph):
        assert path_graph.num_nodes == 5
        assert path_graph.num_edges == 4

    def test_len_is_node_count(self, path_graph):
        assert len(path_graph) == 5

    def test_empty_graph(self):
        g = DiGraph(0, [])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_isolated_nodes_allowed(self):
        g = DiGraph(10, [(0, 1)])
        assert g.num_nodes == 10
        assert g.num_edges == 1

    def test_self_loops_removed(self):
        g = DiGraph(3, [(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1

    def test_duplicate_edges_removed(self):
        g = DiGraph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_negative_node_rejected(self):
        with pytest.raises(GraphError, match="endpoints"):
            DiGraph(3, [(-1, 0)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(GraphError, match="endpoints"):
            DiGraph(3, [(0, 3)])

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            DiGraph(-1, [])

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError, match="pairs"):
            DiGraph(3, [(0, 1, 2)])

    def test_repr(self, path_graph):
        assert repr(path_graph) == "DiGraph(n=5, m=4)"

    def test_first_occurrence_numbers_the_edges(self):
        g = DiGraph(3, [(1, 2), (0, 0), (0, 1), (1, 2), (0, 2), (0, 1)])
        src, dst = g.edge_array()
        assert list(zip(src.tolist(), dst.tolist())) == [(1, 2), (0, 1), (0, 2)]
        assert g.edge_ids.tolist() == [1, 2, 0]

    @pytest.mark.parametrize(
        "edges",
        [
            np.array([[0.5, 1.7]]),
            np.array([[0.0, 1.0]]),
            np.array([[False, True]]),
            [(0.0, 1.0)],
            [(True, False)],
            np.empty((0, 2)),
        ],
        ids=["fractional", "integral-float", "bool", "float-pairs", "bool-pairs", "empty-float"],
    )
    def test_non_integer_edges_rejected(self, edges):
        with pytest.raises(GraphError, match="integers"):
            DiGraph(3, edges)

    @pytest.mark.parametrize(
        "src, dst",
        [
            (np.array([0.5]), np.array([1])),
            (np.array([0]), np.array([1.0])),
            (np.array([False]), np.array([True])),
        ],
        ids=["float-src", "float-dst", "bool"],
    )
    def test_from_arrays_rejects_non_integer_ids(self, src, dst):
        with pytest.raises(GraphError, match="integers"):
            DiGraph.from_arrays(3, src, dst)

    def test_unsigned_and_narrow_ids_accepted(self):
        expected = DiGraph(4, [(0, 1), (1, 2), (2, 3)]).fingerprint
        for dtype in (np.uint8, np.int16, np.int32, np.uint64):
            src = np.array([0, 1, 2], dtype=dtype)
            dst = np.array([1, 2, 3], dtype=dtype)
            assert DiGraph.from_arrays(4, src, dst).fingerprint == expected

    def test_too_many_nodes_rejected(self):
        with pytest.raises(GraphError, match="at most"):
            DiGraph.from_arrays(2**31, np.array([0]), np.array([1]))


class TestAdjacency:
    def test_out_neighbors(self, diamond_graph):
        assert sorted(diamond_graph.out_neighbors(0).tolist()) == [1, 2]
        assert diamond_graph.out_neighbors(3).size == 0

    def test_in_neighbors(self, diamond_graph):
        assert sorted(diamond_graph.in_neighbors(3).tolist()) == [1, 2]
        assert diamond_graph.in_neighbors(0).size == 0

    def test_degrees(self, diamond_graph):
        assert diamond_graph.out_degrees().tolist() == [2, 1, 1, 0]
        assert diamond_graph.in_degrees().tolist() == [0, 1, 1, 2]

    def test_single_degree_accessors(self, diamond_graph):
        assert diamond_graph.out_degree(0) == 2
        assert diamond_graph.in_degree(3) == 2

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(1, 0)

    def test_node_range_checked(self, path_graph):
        with pytest.raises(GraphError, match="out of range"):
            path_graph.out_neighbors(5)
        with pytest.raises(GraphError):
            path_graph.in_neighbors(-1)

    def test_edges_iteration(self, path_graph):
        assert sorted(path_graph.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize(
        "name", ["out_indptr", "out_indices", "in_indptr", "in_indices", "edge_ids"]
    )
    def test_arrays_read_only(self, path_graph, name):
        # Selectors share one graph across every payoff estimate, so neither
        # its CSR arrays nor its attributes may be changed in place.
        with pytest.raises(ValueError):
            getattr(path_graph, name)[0] = 99
        with pytest.raises(AttributeError):
            path_graph.labels = {}


class TestEdgeIds:
    def test_edge_ids_are_permutation(self, karate):
        ids = np.concatenate(
            [karate.out_edge_ids(v) for v in karate.nodes()]
        )
        assert sorted(ids.tolist()) == list(range(karate.num_edges))

    def test_edge_array_matches_adjacency(self, diamond_graph):
        src, dst = diamond_graph.edge_array()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == set(diamond_graph.edges())

    def test_edge_ids_align_with_edge_array(self, karate):
        src, dst = karate.edge_array()
        for v in range(karate.num_nodes):
            for nbr, eid in zip(karate.out_neighbors(v), karate.out_edge_ids(v)):
                assert src[eid] == v
                assert dst[eid] == nbr


class TestReachability:
    def test_path_reach(self, path_graph):
        reached = path_graph.reachable_from([0])
        assert reached.all()

    def test_reach_from_middle(self, path_graph):
        reached = path_graph.reachable_from([2])
        assert reached.tolist() == [False, False, True, True, True]

    def test_multiple_sources(self, diamond_graph):
        reached = diamond_graph.reachable_from([1, 2])
        assert reached.tolist() == [False, True, True, True]

    def test_edge_mask_blocks_traversal(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        # Kill the edge leaving node 1.
        eid = path_graph.out_edge_ids(1)[0]
        mask[eid] = False
        reached = path_graph.reachable_from([0], mask)
        assert reached.tolist() == [True, True, False, False, False]

    def test_empty_mask_keeps_sources(self, path_graph):
        mask = np.zeros(path_graph.num_edges, dtype=bool)
        reached = path_graph.reachable_from([0, 3], mask)
        assert reached.sum() == 2

    def test_cycle_reach(self, cycle_graph):
        assert cycle_graph.reachable_from([2]).all()

    def test_invalid_source_rejected(self, path_graph):
        with pytest.raises(GraphError):
            path_graph.reachable_from([99])


class TestConstructors:
    def test_from_arrays(self):
        g = DiGraph.from_arrays(3, np.array([0, 1]), np.array([1, 2]))
        assert g.num_edges == 2

    def test_from_arrays_accepts_sequences(self):
        assert DiGraph.from_arrays(3, [0, 1], [1, 2]).num_edges == 2
        assert DiGraph.from_arrays(3, [], []).num_edges == 0

    def test_from_arrays_keeps_its_input(self):
        src = np.array([0, 0, 1, 1])
        dst = np.array([1, 1, 1, 2])
        DiGraph.from_arrays(3, src, dst)
        assert src.tolist() == [0, 0, 1, 1] and dst.tolist() == [1, 1, 1, 2]

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(GraphError, match="equal length"):
            DiGraph.from_arrays(3, np.array([0]), np.array([1, 2]))

    def test_from_undirected_symmetrizes(self):
        g = DiGraph.from_undirected(3, [(0, 1), (1, 2)])
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_reverse(self, path_graph):
        rev = path_graph.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == path_graph.num_edges

    def test_double_reverse_identity(self, karate):
        twice = karate.reverse().reverse()
        assert sorted(twice.edges()) == sorted(karate.edges())
