"""Property tests (hypothesis) of the reach closure behind the snapshot oracle.

Every oracle answer — initial gains, single and batched marginal gains,
and the reached sets of :meth:`~repro.cascade.snapshots.SnapshotOracle.reach`
and :meth:`~repro.cascade.snapshots.SnapshotOracle.extend_reach` — is
checked against one :meth:`~repro.graphs.digraph.DiGraph.reachable_from`
BFS per snapshot, which shares nothing with the closure.  Inputs cover
cycles, self-loops, parallel arcs and isolated nodes, all-dead and
all-live masks, bool and packed masks, and an oracle split into one DP per
mask.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascade import snapshots as snapshots_mod
from repro.cascade.snapshots import SnapshotOracle
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import pack_bits
from tests.reference_selection import reach_sizes_by_bfs
from tests.test_property_graphs import structured_edge_lists


@st.composite
def oracle_inputs(draw):
    """A graph, its mask rows, and how the oracle stores and splits them."""
    n, edges = draw(structured_edge_lists())
    graph = DiGraph(n, edges)
    kinds = draw(st.lists(st.sampled_from(["random", "dead", "live"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = [
        rng.random(graph.num_edges) < 0.5
        if kind == "random"
        else np.full(graph.num_edges, kind == "live", dtype=bool)
        for kind in kinds
    ]
    packed = draw(st.booleans())
    # A budget of 1 runs one DP per mask; the default runs one for all.
    budget = draw(st.sampled_from([1, snapshots_mod.REACH_DP_BUDGET]))
    return graph, rows, packed, budget


def _oracle(graph, rows, packed, budget):
    oracle = SnapshotOracle(graph, [pack_bits(r) for r in rows] if packed else rows)
    with mock.patch.object(snapshots_mod, "REACH_DP_BUDGET", budget):
        assert oracle.closure.comp.shape == (len(rows), graph.num_nodes)
    return oracle


def _bfs_reach(graph, rows, seeds):
    return np.stack([graph.reachable_from(seeds, row) for row in rows])


class TestClosureAgainstBfs:
    @given(oracle_inputs())
    @settings(max_examples=60, deadline=None)
    def test_initial_gains(self, inputs):
        graph, rows, packed, budget = inputs
        oracle = _oracle(graph, rows, packed, budget)
        totals = np.sum([reach_sizes_by_bfs(graph, row) for row in rows], axis=0)
        assert oracle.initial_gains() == (totals / len(rows)).tolist()

    @given(oracle_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_marginal_gains_single_batched_duplicate_and_reached(self, inputs, data):
        graph, rows, packed, budget = inputs
        n = graph.num_nodes
        oracle = _oracle(graph, rows, packed, budget)
        node = st.integers(0, n - 1)
        seeds = data.draw(st.lists(node, max_size=3))
        # Duplicates and already-reached seeds are allowed among candidates.
        candidates = data.draw(st.lists(node, max_size=8)) + seeds[:1]
        reached = oracle.reach(seeds)
        before = _bfs_reach(graph, rows, seeds)
        np.testing.assert_array_equal(reached, before)
        expected = [
            int((_bfs_reach(graph, rows, seeds + [v]) & ~before).sum()) / len(rows)
            for v in candidates
        ]
        batched = oracle.marginal_gain(np.asarray(candidates, dtype=np.int64), reached)
        assert batched.tolist() == expected
        assert [oracle.marginal_gain(v, reached) for v in candidates] == expected
        np.testing.assert_array_equal(reached, before)

    @given(oracle_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_extend_reach_is_the_bfs_union(self, inputs, data):
        graph, rows, packed, budget = inputs
        oracle = _oracle(graph, rows, packed, budget)
        picks = data.draw(st.lists(st.integers(0, graph.num_nodes - 1), max_size=4))
        reached = oracle.reach([])
        for count, pick in enumerate(picks, start=1):
            oracle.extend_reach(reached, pick)
            np.testing.assert_array_equal(reached, _bfs_reach(graph, rows, picks[:count]))
        assert oracle.spread(picks) == reached.sum() / len(rows)
