"""Tests for DegreeDiscount, SingleDiscount, HighDegree, PageRank, Random."""

import numpy as np
import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.heuristics import HighDegree, PageRankSeeds, RandomSeeds
from repro.algorithms.single_discount import SingleDiscount
from repro.graphs.digraph import DiGraph
from repro.utils.rng import as_rng


def _distinct_in_range(seeds, k, n):
    assert len(seeds) == k
    assert len(set(seeds)) == k
    assert all(0 <= s < n for s in seeds)


class TestDegreeDiscount:
    def test_valid_output(self, karate):
        seeds = DegreeDiscount(0.05).select(karate, 5, rng=0)
        _distinct_in_range(seeds, 5, karate.num_nodes)

    def test_first_pick_is_max_degree(self, karate):
        seeds = DegreeDiscount(0.05).select(karate, 1, rng=0)
        degrees = karate.out_degrees()
        assert degrees[seeds[0]] == degrees.max()

    def test_discount_avoids_clustering(self, star_graph):
        # After taking the hub, leaves all have degree 0; any two leaves
        # equally fine, but the hub must come first.
        seeds = DegreeDiscount(0.1).select(star_graph, 3, rng=1)
        assert seeds[0] == 0

    def test_discount_formula_applied(self):
        # Triangle plus pendant: picking the top node discounts its
        # neighbours below the pendant-attached node.
        # Graph: 0-1, 0-2, 1-2 (triangle), 3-4 isolated edge, 0-5.
        g = DiGraph.from_undirected(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (0, 5)]
        )
        seeds = DegreeDiscount(0.5).select(g, 2, rng=2)
        assert seeds[0] == 0  # degree 3
        # 1 and 2 have raw degree 2 but discounted to
        # 2 - 2*1 - (2-1)*1*0.5 = -0.5; node 3/4 have degree 1 > -0.5.
        assert seeds[1] in (3, 4)

    def test_prefix_consistency(self, karate):
        rng_state = 7
        long = DegreeDiscount(0.05).select(karate, 8, rng=rng_state)
        short = DegreeDiscount(0.05).select(karate, 4, rng=rng_state)
        assert long[:4] == short

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            DegreeDiscount(-0.1)


class TestSingleDiscount:
    def test_valid_output(self, karate):
        seeds = SingleDiscount().select(karate, 6, rng=0)
        _distinct_in_range(seeds, 6, karate.num_nodes)

    def test_first_pick_is_max_degree(self, karate):
        seeds = SingleDiscount().select(karate, 1, rng=0)
        degrees = karate.out_degrees()
        assert degrees[seeds[0]] == degrees.max()

    def test_discounting_beats_plain_degree(self):
        # Clique of 4 hubs vs a spread-out node: after two clique picks the
        # remaining clique members are discounted below the outsider.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges += [(4, 5), (4, 6), (4, 7)]
        g = DiGraph.from_undirected(8, edges)
        seeds = SingleDiscount().select(g, 2, rng=1)
        assert seeds[0] in (0, 1, 2, 3)
        assert seeds[1] == 4  # degree 3 beats discounted 3-2=1... wait 3-1=2
        # (clique members have degree 3; after one pick each is 3-1=2 < 4's 3)

    def test_star_takes_hub_first(self, star_graph):
        assert SingleDiscount().select(star_graph, 1, rng=0)[0] == 0


class TestHighDegree:
    def test_orders_by_degree(self, karate):
        seeds = HighDegree().select(karate, 3, rng=0)
        degrees = karate.out_degrees()
        top3 = sorted(degrees, reverse=True)[:3]
        assert sorted((degrees[s] for s in seeds), reverse=True) == top3

    def test_picks_equal_stable_argsort_order(self, karate):
        # Repeated argmax and a stable descending sort both put the lowest
        # index first among equal scores, so the picks are the sort's prefix.
        from tests.reference_selection import high_degree_by_argsort

        for rng in range(20):
            assert HighDegree()._select(karate, 34, rng) == high_degree_by_argsort(
                karate, 34, rng
            )

    def test_random_tiebreak_varies(self):
        # A graph of equal-degree nodes: different rngs, different picks.
        g = DiGraph.from_undirected(8, [(i, (i + 1) % 8) for i in range(8)])
        picks = {tuple(HighDegree().select(g, 2, rng=s)) for s in range(20)}
        assert len(picks) > 1


class TestRandomSeeds:
    def test_valid_output(self, karate):
        _distinct_in_range(RandomSeeds().select(karate, 10, rng=0), 10, 34)

    def test_uniform_coverage(self, karate):
        rng = as_rng(0)
        counts = np.zeros(34)
        for _ in range(500):
            for s in RandomSeeds().select(karate, 2, rng):
                counts[s] += 1
        # Every node should be picked at least once over 1000 draws.
        assert counts.min() > 0


class TestPageRankSeeds:
    def test_scores_sum_to_one(self, karate):
        scores = PageRankSeeds().scores(karate)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores > 0)

    def test_hub_ranks_first_on_star(self, star_graph):
        # Influence flows outward: reversed-graph PageRank puts the hub on
        # top (all leaves point back at it in the reversed graph).
        seeds = PageRankSeeds().select(star_graph, 1, rng=0)
        assert seeds[0] == 0

    def test_unreversed_variant_ranks_sinks(self, star_graph):
        scores = PageRankSeeds(reverse=False).scores(star_graph)
        # In the original orientation the leaves receive all rank mass.
        assert scores[1] > scores[0] * 0.5  # leaves are not negligible

    def test_matches_networkx(self, karate):
        import networkx as nx

        from tests.networkx_reference import networkx_digraph

        ours = PageRankSeeds(reverse=False, max_iterations=200).scores(karate)
        theirs = nx.pagerank(networkx_digraph(karate), alpha=0.85, tol=1e-12)
        theirs_arr = np.array([theirs[v] for v in range(karate.num_nodes)])
        assert np.allclose(ours, theirs_arr, atol=1e-6)

    def test_dangling_nodes_handled(self, path_graph):
        scores = PageRankSeeds(reverse=False).scores(path_graph)
        assert scores.sum() == pytest.approx(1.0)

    def test_empty_graph(self):
        assert PageRankSeeds().scores(DiGraph(0, [])).size == 0

    def test_selects_k(self, karate):
        seeds = PageRankSeeds().select(karate, 4, rng=0)
        _distinct_in_range(seeds, 4, karate.num_nodes)
