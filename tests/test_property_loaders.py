"""Property-based round-trip tests for edge-list I/O."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph
from repro.graphs.loaders import load_edge_list, save_edge_list


@st.composite
def arbitrary_digraph(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=60,
        )
    )
    return DiGraph(n, edges)


class TestRoundTripProperties:
    @given(graph=arbitrary_digraph())
    @settings(max_examples=40, deadline=None)
    def test_edges_survive_round_trip(self, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.txt"
        save_edge_list(graph, path)
        loaded, label_map = load_edge_list(path)
        # Saved node ids are already dense, so the mapping is injective and
        # edge sets match up to that relabelling.
        mapped = {
            (label_map[u], label_map[v]) for u, v in graph.edges()
        }
        assert set(loaded.edges()) == mapped

    @given(graph=arbitrary_digraph())
    @settings(max_examples=40, deadline=None)
    def test_edge_count_preserved(self, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.txt"
        save_edge_list(graph, path)
        loaded, _ = load_edge_list(path)
        assert loaded.num_edges == graph.num_edges

    @given(graph=arbitrary_digraph())
    @settings(max_examples=30, deadline=None)
    def test_degree_multiset_preserved(self, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.txt"
        save_edge_list(graph, path)
        loaded, _ = load_edge_list(path)
        # Isolated nodes are not serialized by an edge list, so compare
        # the degree multisets of non-isolated nodes only.
        def degrees(g: DiGraph) -> list[tuple[int, int]]:
            out = []
            for v in range(g.num_nodes):
                d_out, d_in = g.out_degree(v), g.in_degree(v)
                if d_out or d_in:
                    out.append((d_out, d_in))
            return sorted(out)

        assert degrees(loaded) == degrees(graph)
