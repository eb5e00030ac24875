"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph


@st.composite
def edge_lists(draw, max_nodes=20, max_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_edges,
        )
    )
    return n, edges


class TestDiGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_no_self_loops_or_duplicates(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        seen = set()
        for u, v in g.edges():
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_simple_edge_set(self, data):
        n, edges = data
        simple = {(u, v) for u, v in edges if u != v}
        assert DiGraph(n, edges).num_edges == len(simple)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reverse_swaps_degrees(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        rev = g.reverse()
        assert np.array_equal(g.out_degrees(), rev.in_degrees())
        assert np.array_equal(g.in_degrees(), rev.out_degrees())

    @given(edge_lists(), st.integers(min_value=0, max_value=19))
    @settings(max_examples=40, deadline=None)
    def test_reachability_contains_source_and_is_closed(self, data, source):
        n, edges = data
        g = DiGraph(n, edges)
        source = source % n
        reached = g.reachable_from([source])
        assert reached[source]
        # Closure: no edge leaves the reached set.
        for u in range(n):
            if reached[u]:
                for v in g.out_neighbors(u):
                    assert reached[v]

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reachability_monotone_in_sources(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        single = g.reachable_from([0])
        both = g.reachable_from([0, n - 1])
        assert np.all(both[single])  # superset

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edge_array_is_stable_permutation(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        src, dst = g.edge_array()
        assert src.shape == dst.shape == (g.num_edges,)
        assert set(zip(src.tolist(), dst.tolist())) == set(g.edges())


class TestReachSizesProperty:
    @given(edge_lists(max_nodes=15, max_edges=40))
    @settings(max_examples=40, deadline=None)
    def test_all_reach_sizes_match_bfs(self, data):
        from repro.cascade.reachability import all_reach_sizes

        n, edges = data
        g = DiGraph(n, edges)
        sizes = all_reach_sizes(g)
        for v in range(n):
            assert sizes[v] == int(g.reachable_from([v]).sum())

    @given(edge_lists(max_nodes=12, max_edges=30), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_reach_sizes_match_bfs_under_mask(self, data, seed):
        from repro.cascade.reachability import all_reach_sizes

        n, edges = data
        g = DiGraph(n, edges)
        rng = np.random.default_rng(seed)
        mask = rng.random(g.num_edges) < 0.5
        sizes = all_reach_sizes(g, mask)
        for v in range(n):
            assert sizes[v] == int(g.reachable_from([v], mask).sum())


@st.composite
def structured_edge_lists(draw, max_nodes=14):
    """Edge lists with a planted cycle, self-loops, parallel edges and isolates.

    ``DiGraph`` drops self-loops and collapses parallel edges, so these
    exercise that the reach DP sees the same simple graph the BFS does.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=25))
    cycle = draw(st.lists(node, unique=True, max_size=n))
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    edges += [(v, v) for v in draw(st.lists(node, max_size=3))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    isolated = draw(st.integers(min_value=0, max_value=3))
    return n + isolated, edges


class TestReachSizesStructured:
    @given(
        structured_edge_lists(),
        st.sampled_from(["random", "dead", "live"]),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_reach_sizes_match_bfs_on_structured_inputs(
        self, data, mask_kind, packed, seed
    ):
        from repro.cascade.reachability import all_reach_sizes
        from repro.utils.bitset import pack_bits

        n, edges = data
        g = DiGraph(n, edges)
        if mask_kind == "random":
            mask = np.random.default_rng(seed).random(g.num_edges) < 0.5
        else:
            mask = np.full(g.num_edges, mask_kind == "live", dtype=bool)
        sizes = all_reach_sizes(g, pack_bits(mask) if packed else mask)
        for v in range(n):
            assert sizes[v] == int(g.reachable_from([v], mask).sum())
        if mask_kind == "dead":
            assert sizes.tolist() == [1] * n
        if mask_kind == "live":
            assert sizes.tolist() == all_reach_sizes(g).tolist()


class TestStackedReachSizes:
    """The block-diagonal reach DP over a mask stack, row by row against BFS."""

    @given(
        structured_edge_lists(),
        st.lists(st.sampled_from(["random", "dead", "live"]), min_size=1, max_size=5),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_matches_bfs(self, data, kinds, packed, seed):
        from repro.cascade.reachability import all_reach_sizes
        from repro.utils.bitset import pack_bits
        from tests.reference_selection import reach_sizes_by_bfs

        n, edges = data
        g = DiGraph(n, edges)
        rng = np.random.default_rng(seed)
        rows = [
            rng.random(g.num_edges) < 0.5
            if kind == "random"
            else np.full(g.num_edges, kind == "live", dtype=bool)
            for kind in kinds
        ]
        stack = np.stack([pack_bits(r) for r in rows] if packed else rows)
        sizes = all_reach_sizes(g, stack)
        assert sizes.shape == (len(rows), n)
        for row, mask in zip(sizes, rows):
            assert row.tolist() == reach_sizes_by_bfs(g, mask)
        # A 1-D mask is a one-row stack.
        one = all_reach_sizes(g, stack[0])
        assert one.tolist() == sizes[0].tolist()
        assert all_reach_sizes(g, stack[:1]).tolist() == [one.tolist()]

    @given(edge_lists(max_nodes=12, max_edges=30))
    @settings(max_examples=30, deadline=None)
    def test_none_is_the_all_live_row(self, data):
        from repro.cascade.reachability import all_reach_sizes

        n, edges = data
        g = DiGraph(n, edges)
        live = np.ones((2, g.num_edges), dtype=bool)
        whole = all_reach_sizes(g)
        assert whole.shape == (n,)
        assert all_reach_sizes(g, live).tolist() == [whole.tolist()] * 2
