"""Tests for repro.graphs.stats."""

import numpy as np
import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.stats import (
    GraphSummary,
    _gini,
    clustering_coefficient,
    degree_assortativity,
    degree_ccdf,
    effective_diameter,
    largest_weakly_connected_fraction,
    summarize,
)


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.array([3, 3, 3, 3])) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_is_high(self):
        values = np.zeros(100)
        values[0] = 100
        assert _gini(values) > 0.9

    def test_empty_is_zero(self):
        assert _gini(np.array([])) == 0.0

    def test_all_zero_is_zero(self):
        assert _gini(np.zeros(5)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.pareto(1.5, size=200)
        assert 0.0 <= _gini(values) <= 1.0


class TestSummarize:
    def test_path_graph(self, path_graph):
        summary = summarize(path_graph)
        assert summary.num_nodes == 5
        assert summary.num_edges == 4
        assert summary.mean_out_degree == pytest.approx(0.8)
        assert summary.max_out_degree == 1
        assert summary.max_in_degree == 1

    def test_star_graph(self, star_graph):
        summary = summarize(star_graph)
        assert summary.max_out_degree == 10
        assert summary.max_in_degree == 1
        assert summary.degree_gini > 0.8

    def test_empty_graph(self):
        summary = summarize(DiGraph(0, []))
        assert summary.num_nodes == 0
        assert summary.mean_out_degree == 0.0

    def test_as_row_keys(self, karate):
        row = summarize(karate).as_row()
        assert {"nodes", "edges", "mean_deg", "max_out", "max_in", "gini"} <= set(row)

    def test_returns_dataclass(self, karate):
        assert isinstance(summarize(karate), GraphSummary)


class TestDegreeCcdf:
    def test_monotone_decreasing(self, karate):
        _, survivors = degree_ccdf(karate)
        assert np.all(np.diff(survivors) <= 0)

    def test_starts_at_one_for_min_degree(self, karate):
        values, survivors = degree_ccdf(karate)
        assert survivors[0] == pytest.approx(1.0)

    def test_in_direction(self, star_graph):
        values, survivors = degree_ccdf(star_graph, direction="in")
        assert values.max() == 1

    def test_bad_direction_rejected(self, karate):
        with pytest.raises(ValueError, match="direction"):
            degree_ccdf(karate, direction="sideways")

    def test_empty_graph(self):
        values, survivors = degree_ccdf(DiGraph(0, []))
        assert values.size == 0


class TestClusteringCoefficient:
    def test_triangle_is_one(self):
        g = DiGraph.from_undirected(3, [(0, 1), (1, 2), (0, 2)])
        assert clustering_coefficient(g) == pytest.approx(1.0)

    def test_star_is_zero(self, star_graph):
        assert clustering_coefficient(star_graph) == 0.0

    def test_matches_networkx(self, karate):
        import networkx as nx

        from tests.networkx_reference import networkx_digraph

        ours = clustering_coefficient(karate)
        theirs = nx.average_clustering(networkx_digraph(karate).to_undirected())
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_sampling_close_to_exact(self, karate):
        exact = clustering_coefficient(karate)
        sampled = clustering_coefficient(karate, samples=25, rng=0)
        assert sampled == pytest.approx(exact, abs=0.15)

    def test_empty_graph(self):
        assert clustering_coefficient(DiGraph(0, [])) == 0.0

    def test_community_graph_clusters(self):
        from repro.graphs.generators import community_powerlaw

        g = community_powerlaw(300, 1200, mixing=0.05, rng=1)
        assert clustering_coefficient(g, samples=100, rng=2) > 0.1


class TestDegreeAssortativity:
    def test_bounded(self, karate):
        value = degree_assortativity(karate)
        assert -1.0 <= value <= 1.0

    def test_star_is_degenerate_or_negative(self, star_graph):
        # All arcs go hub -> leaf: source degree constant => 0 by convention.
        assert degree_assortativity(star_graph) == 0.0

    def test_empty_graph(self):
        assert degree_assortativity(DiGraph(3, [])) == 0.0

    def test_karate_disassortative(self, karate):
        # Zachary's club is famously disassortative (~ -0.48).
        assert degree_assortativity(karate) < -0.3


class TestEffectiveDiameter:
    def test_path_graph(self, path_graph):
        # Distances from node 0: 1..4; 90th percentile of all finite
        # forward distances is close to the path length.
        value = effective_diameter(path_graph, samples=5, rng=0)
        assert 2.0 <= value <= 4.0

    def test_karate_small_world(self, karate):
        value = effective_diameter(karate, samples=34, rng=1)
        assert 1.0 <= value <= 5.0

    def test_empty(self):
        assert effective_diameter(DiGraph(0, [])) == 0.0

    def test_isolated_nodes_ignored(self):
        g = DiGraph(5, [(0, 1)])
        assert effective_diameter(g, samples=5, rng=2) == pytest.approx(1.0)

    def test_percentile_validated(self, karate):
        with pytest.raises(ValueError, match="percentile"):
            effective_diameter(karate, percentile=1.5)


class TestConnectivity:
    def test_connected_graph(self, karate):
        assert largest_weakly_connected_fraction(karate) == pytest.approx(1.0)

    def test_two_components(self):
        g = DiGraph(6, [(0, 1), (1, 2), (3, 4)])
        assert largest_weakly_connected_fraction(g) == pytest.approx(0.5)

    def test_empty(self):
        assert largest_weakly_connected_fraction(DiGraph(0, [])) == 0.0
