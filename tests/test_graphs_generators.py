"""Tests for repro.graphs.generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.generators import (
    _powerlaw_degrees,
    copying_model,
    erdos_renyi,
    karate_like_fixture,
    powerlaw_configuration,
)
from repro.utils.rng import as_rng


class TestPowerlawDegrees:
    def test_exact_sum(self):
        degrees = _powerlaw_degrees(100, 600, 2.5, as_rng(0))
        assert degrees.sum() == 600

    def test_min_degree_respected(self):
        degrees = _powerlaw_degrees(50, 300, 2.5, as_rng(1), min_degree=2)
        assert degrees.min() >= 2

    def test_infeasible_budget_rejected(self):
        with pytest.raises(GraphError, match="cannot support"):
            _powerlaw_degrees(100, 50, 2.5, as_rng(0))

    def test_heavy_tail_present(self):
        degrees = _powerlaw_degrees(2000, 12000, 2.3, as_rng(2))
        assert degrees.max() > 5 * degrees.mean()


class TestPowerlawConfiguration:
    def test_node_count(self):
        g = powerlaw_configuration(300, 900, rng=0)
        assert g.num_nodes == 300

    def test_edge_count_near_target(self):
        g = powerlaw_configuration(500, 2000, rng=0)
        # Symmetrized: ~2x undirected budget, minus collision losses.
        assert 0.75 * 4000 <= g.num_edges <= 4000

    def test_symmetric(self):
        g = powerlaw_configuration(100, 300, rng=3)
        for u, v in list(g.edges())[:50]:
            assert g.has_edge(v, u)

    def test_deterministic_for_seed(self):
        a = powerlaw_configuration(100, 300, rng=5)
        b = powerlaw_configuration(100, 300, rng=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_bad_exponent_rejected(self):
        with pytest.raises(GraphError, match="exponent"):
            powerlaw_configuration(100, 300, exponent=0.9)


class TestCommunityPowerlaw:
    def test_counts_hit_budget(self):
        from repro.graphs.generators import community_powerlaw

        g = community_powerlaw(600, 2400, rng=0)
        assert g.num_nodes == 600
        # Compensation loop lands within a few percent of 2x budget arcs.
        assert 0.95 * 4800 <= g.num_edges <= 4800 + 10

    def test_symmetric(self):
        from repro.graphs.generators import community_powerlaw

        g = community_powerlaw(200, 600, rng=1)
        for u, v in list(g.edges())[:60]:
            assert g.has_edge(v, u)

    def test_clustered_above_configuration_model(self):
        """Planted communities must produce real clustering, unlike the bare
        configuration model."""
        import networkx as nx

        from repro.graphs.generators import community_powerlaw
        from tests.networkx_reference import networkx_digraph

        g = community_powerlaw(500, 2000, mixing=0.05, rng=2)
        base = powerlaw_configuration(500, 2000, rng=2)
        cc_comm = nx.average_clustering(networkx_digraph(g).to_undirected())
        cc_base = nx.average_clustering(networkx_digraph(base).to_undirected())
        assert cc_comm > cc_base * 2

    def test_heavy_tail(self):
        from repro.graphs.generators import community_powerlaw

        g = community_powerlaw(1000, 4000, rng=3)
        degrees = g.out_degrees()
        assert degrees.max() > 4 * degrees.mean()

    def test_deterministic(self):
        from repro.graphs.generators import community_powerlaw

        a = community_powerlaw(200, 600, rng=5)
        b = community_powerlaw(200, 600, rng=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_mixing_validated(self):
        from repro.graphs.generators import community_powerlaw

        with pytest.raises(ValueError):
            community_powerlaw(100, 300, mixing=1.5)

    def test_explicit_community_count(self):
        from repro.graphs.generators import community_powerlaw

        g = community_powerlaw(300, 900, num_communities=3, rng=6)
        assert g.num_nodes == 300


class TestCopyingModel:
    def test_node_count(self):
        g = copying_model(200, rng=0)
        assert g.num_nodes == 200

    def test_in_degree_skew(self):
        g = copying_model(1000, out_edges=2, copy_probability=0.8, rng=1)
        in_deg = g.in_degrees()
        assert in_deg.max() > 8 * in_deg.mean()

    def test_out_edges_bounded(self):
        g = copying_model(300, out_edges=3, rng=2)
        # Boot clique included, no node has more than 3 out-edges.
        assert g.out_degrees().max() <= 3

    def test_tiny_graph(self):
        g = copying_model(1, rng=0)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_copy_probability_validated(self):
        with pytest.raises(ValueError):
            copying_model(10, copy_probability=1.5)

    def test_arcs_past_boot_clique_point_to_lower_nodes(self):
        g = copying_model(2000, out_edges=3, copy_probability=0.75, rng=4)
        src, dst = g.edge_array()
        past_boot = src >= 4
        assert np.all(dst[past_boot] < src[past_boot])

    @pytest.mark.parametrize("n, out_edges", [(3, 5), (4, 3)])
    def test_small_n_is_the_boot_clique_without_padding(self, n, out_edges):
        g = copying_model(n, out_edges=out_edges, rng=0)
        assert sorted(g.edges()) == [(u, v) for u in range(n) for v in range(n) if u != v]

    def test_full_copying_resolves_into_the_boot_clique(self):
        # Every copy chain ends at a root; with no uniform draws the only
        # roots are the clique's entries.
        g = copying_model(500, out_edges=2, copy_probability=1.0, rng=6)
        _, dst = g.edge_array()
        assert dst.max() < 3

    def test_no_copying_is_uniform_over_lower_nodes(self):
        g = copying_model(3000, out_edges=1, copy_probability=0.0, rng=7)
        # Node v's single arc is uniform on [0, v): about half land below v/2.
        src, dst = g.edge_array()
        tail = src >= 2
        frac = np.mean(dst[tail] < src[tail] / 2)
        assert 0.45 < frac < 0.55

    @pytest.mark.parametrize("seed", [2394385, 11, 12])
    def test_wiki_default_shape_matches_old_generator(self, seed):
        # Statistics of the per-node loop generator at the wiki default
        # (wiki(scale=0.05), seed 2394385): 192,593 arcs, in-degree-0
        # fraction 0.668, top-1% in-degree share 0.46.
        n = 119_719
        g = copying_model(n, out_edges=2, copy_probability=0.75, rng=seed)
        assert g.num_nodes == n
        assert abs(g.num_edges - 192_593) <= 0.01 * 192_593
        in_deg = g.in_degrees()
        assert abs(np.mean(in_deg == 0) - 0.668) <= 0.005
        top = np.sort(in_deg)[::-1][: n // 100].sum() / in_deg.sum()
        assert abs(top - 0.46) <= 0.02


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(50, 200, rng=0)
        assert g.num_edges == 200

    def test_no_self_loops(self):
        g = erdos_renyi(20, 100, rng=1)
        for u, v in g.edges():
            assert u != v

    def test_max_density(self):
        g = erdos_renyi(5, 20, rng=2)
        assert g.num_edges == 20

    def test_over_max_rejected(self):
        with pytest.raises(GraphError, match="exceeds"):
            erdos_renyi(5, 21)

    def test_deterministic(self):
        a = erdos_renyi(30, 60, rng=4)
        b = erdos_renyi(30, 60, rng=4)
        assert sorted(a.edges()) == sorted(b.edges())


class TestKarateFixture:
    def test_canonical_counts(self):
        g = karate_like_fixture()
        assert g.num_nodes == 34
        assert g.num_edges == 156  # 78 undirected edges, both directions

    def test_symmetric(self):
        g = karate_like_fixture()
        for u, v in g.edges():
            assert g.has_edge(v, u)

    def test_hub_degrees(self):
        g = karate_like_fixture()
        degrees = g.out_degrees()
        # The two club leaders (nodes 33 and 0) are the highest-degree nodes.
        assert int(np.argmax(degrees)) in (0, 33)
        assert degrees[33] == 17
        assert degrees[0] == 16
