"""Tests for repro.graphs.delta: merge_delta vs full rebuild, id maps,
no-op semantics, input validation, and store journaling."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.delta import AppliedDelta, EdgeDelta, merge_delta
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.store import GraphStore
from repro.utils.rng import as_rng


def random_graph(rng, n=40):
    return erdos_renyi(n, 3 * n, rng=rng)


def random_delta(graph, rng, k=6):
    """k random removals drawn from existing arcs, k random candidate adds."""
    src, dst = graph.edge_array()
    removed = []
    if graph.num_edges:
        idx = rng.choice(graph.num_edges, size=min(k, graph.num_edges), replace=False)
        removed = [(int(src[i]), int(dst[i])) for i in idx]
    added = []
    while len(added) < k:
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes))
        if u != v:
            added.append((u, v))
    return EdgeDelta.of(added=added, removed=removed)


def rebuild(applied: AppliedDelta) -> DiGraph:
    """The reference semantics: survivors in stable-id order, then adds."""
    src, dst = applied.parent.edge_array()
    merged = [
        (int(src[i]), int(dst[i])) for i in applied.kept_old_ids
    ] + [(int(u), int(v)) for u, v in applied.added_edges]
    return DiGraph(applied.parent.num_nodes, merged)


class TestEdgeDelta:
    def test_of_normalizes_arrays(self):
        delta = EdgeDelta.of(added=np.array([[0, 1], [2, 3]]), removed=[(4, 5)])
        assert delta.added == ((0, 1), (2, 3))
        assert delta.removed == ((4, 5),)
        assert not delta.empty

    def test_empty(self):
        assert EdgeDelta().empty
        assert EdgeDelta.of().added_array().shape == (0, 2)

    def test_hashable(self):
        assert hash(EdgeDelta.of(added=[(0, 1)])) == hash(EdgeDelta.of(added=[(0, 1)]))

    def test_bad_array_shape_rejected(self):
        with pytest.raises(GraphError, match="pairs"):
            EdgeDelta.of(added=np.arange(6).reshape(2, 3))

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2, 3)], [(1,)], [7], [None], [("a", "b")], 5, np.array([1, 2])],
        ids=["triple", "single", "scalar", "none", "non-int", "not-iterable", "flat-array"],
    )
    def test_non_pair_entries_rejected(self, edges):
        with pytest.raises(GraphError, match="pairs"):
            EdgeDelta.of(added=edges)
        with pytest.raises(GraphError, match="pairs"):
            EdgeDelta.of(removed=edges)


class TestMergeBitIdentity:
    """merge_delta's graph must be bit-identical to a constructor rebuild."""

    @pytest.mark.parametrize("trial", range(10))
    def test_random_graphs_random_deltas(self, trial):
        rng = as_rng(900 + trial)
        graph = random_graph(rng)
        applied = merge_delta(graph, random_delta(graph, rng))
        expected = rebuild(applied)

        assert applied.graph.num_nodes == expected.num_nodes
        assert applied.graph.num_edges == expected.num_edges
        np.testing.assert_array_equal(applied.graph.out_indptr, expected.out_indptr)
        np.testing.assert_array_equal(applied.graph.out_indices, expected.out_indices)
        np.testing.assert_array_equal(applied.graph.in_indptr, expected.in_indptr)
        np.testing.assert_array_equal(applied.graph.in_indices, expected.in_indices)
        np.testing.assert_array_equal(applied.graph.edge_ids, expected.edge_ids)
        np.testing.assert_array_equal(applied.graph.in_edge_ids, expected.in_edge_ids)
        assert applied.graph.fingerprint == expected.fingerprint

    def test_reachability_matches_rebuild(self):
        rng = as_rng(77)
        graph = random_graph(rng)
        applied = merge_delta(graph, random_delta(graph, rng))
        expected = rebuild(applied)
        mask = rng.random(applied.graph.num_edges) < 0.6
        np.testing.assert_array_equal(
            applied.graph.reachable_from([0, 3], mask),
            expected.reachable_from([0, 3], mask),
        )

    def test_attribute_migration_via_id_maps(self):
        rng = as_rng(5)
        graph = random_graph(rng)
        src_old, dst_old = graph.edge_array()
        applied = merge_delta(graph, random_delta(graph, rng))
        src_new, dst_new = applied.graph.edge_array()
        np.testing.assert_array_equal(
            src_new[applied.kept_new_ids], src_old[applied.kept_old_ids]
        )
        np.testing.assert_array_equal(
            dst_new[applied.kept_new_ids], dst_old[applied.kept_old_ids]
        )
        np.testing.assert_array_equal(
            np.column_stack(
                [src_new[applied.added_new_ids], dst_new[applied.added_new_ids]]
            ),
            applied.added_edges,
        )

    def test_apply_delta_method_matches_merge(self):
        rng = as_rng(6)
        graph = random_graph(rng)
        delta = random_delta(graph, rng)
        via_method = graph.apply_delta(delta)
        via_merge = merge_delta(graph, delta).graph
        assert via_method.fingerprint == via_merge.fingerprint


class TestNoopSemantics:
    def test_removing_absent_edge_is_noop(self):
        graph = DiGraph(4, [(0, 1), (1, 2)])
        applied = merge_delta(graph, EdgeDelta.of(removed=[(2, 3)]))
        assert applied.is_noop
        assert applied.noop_removed == 1
        assert applied.graph.fingerprint == graph.fingerprint

    def test_adding_present_edge_is_noop(self):
        graph = DiGraph(4, [(0, 1), (1, 2)])
        applied = merge_delta(graph, EdgeDelta.of(added=[(0, 1)]))
        assert applied.is_noop
        assert applied.noop_added == 1

    def test_self_loops_and_duplicates_dropped(self):
        graph = DiGraph(4, [(0, 1)])
        applied = merge_delta(
            graph, EdgeDelta.of(added=[(2, 2), (1, 3), (1, 3)])
        )
        assert applied.num_added == 1
        assert applied.graph.num_edges == 2

    def test_removed_and_added_edge_gets_fresh_id(self):
        graph = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        applied = merge_delta(
            graph, EdgeDelta.of(added=[(1, 2)], removed=[(1, 2)])
        )
        # Same topology, but (1, 2) was renumbered to a fresh trailing id.
        assert applied.num_added == 1 and applied.num_removed == 1
        src, dst = applied.graph.edge_array()
        new_id = int(applied.added_new_ids[0])
        assert (int(src[new_id]), int(dst[new_id])) == (1, 2)
        assert new_id == applied.graph.num_edges - 1

    def test_out_of_range_endpoints_rejected(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(GraphError, match="endpoints"):
            merge_delta(graph, EdgeDelta.of(added=[(0, 3)]))
        with pytest.raises(GraphError, match="endpoints"):
            merge_delta(graph, EdgeDelta.of(removed=[(-1, 0)]))

    def test_node_count_preserved(self):
        graph = DiGraph(9, [(0, 1)])
        applied = merge_delta(graph, EdgeDelta.of(added=[(7, 8)]))
        assert applied.graph.num_nodes == 9

    def test_edge_lists_cover_effective_changes_only(self):
        graph = DiGraph(6, [(0, 1), (2, 3)])
        applied = merge_delta(
            graph,
            EdgeDelta.of(added=[(4, 5), (0, 1)], removed=[(2, 3), (1, 5)]),
        )
        assert applied.added_edges.tolist() == [[4, 5]]
        assert applied.removed_edges.tolist() == [[2, 3]]


class TestReadOnlyCsr:
    """Regression: CSR arrays are frozen so a stale fingerprint can't happen."""

    def test_merged_graph_arrays_not_writeable(self):
        rng = as_rng(11)
        graph = random_graph(rng)
        child = merge_delta(graph, random_delta(graph, rng)).graph
        for arr in (
            child.out_indptr,
            child.out_indices,
            child.in_indptr,
            child.in_indices,
            child.edge_ids,
            child.in_edge_ids,
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_constructor_graph_arrays_not_writeable(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="read-only"):
            graph.out_indices[0] = 2

    def test_fingerprint_stable_after_failed_mutation(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        before = graph.fingerprint
        with pytest.raises(ValueError):
            graph.out_indices[0] = 2
        assert graph.fingerprint == before


class TestGraphStoreDeltas:
    def test_apply_delta_persists_child_and_journals(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = DiGraph(5, [(0, 1), (1, 2), (2, 3)])
        store.save(graph, "base")
        child_ref = store.apply_delta(
            "base", EdgeDelta.of(added=[(3, 4)], removed=[(0, 1), (4, 0)])
        )
        child = child_ref.open()
        assert child.num_edges == 3
        assert child.fingerprint == child_ref.fingerprint

        log = store.delta_log()
        assert len(log) == 1
        record = log[0]
        assert record["parent_fingerprint"] == graph.fingerprint
        assert record["child_fingerprint"] == child.fingerprint
        assert record["added"] == [[3, 4]]
        assert record["removed"] == [[0, 1]]
        assert record["noop_removed"] == 1

    def test_delta_log_accumulates_lineage(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = DiGraph(4, [(0, 1)])
        store.save(graph, "base")
        ref1 = store.apply_delta("base", EdgeDelta.of(added=[(1, 2)]))
        store.apply_delta(ref1, EdgeDelta.of(added=[(2, 3)]))
        log = store.delta_log()
        assert [r["parent_fingerprint"] for r in log[1:]] == [
            log[0]["child_fingerprint"]
        ]

    def test_empty_store_has_empty_log(self, tmp_path):
        assert GraphStore(tmp_path).delta_log() == []
