"""Tests for repro.graphs.datasets (surrogate registry)."""

import gzip

import pytest

from repro.errors import GraphError
from repro.graphs.datasets import DATASETS, get_dataset, hep, phy, real_wiki_path, wiki


class TestRegistry:
    def test_contains_paper_networks(self):
        assert set(DATASETS) == {"hep", "phy", "wiki"}

    def test_paper_sizes_recorded(self):
        assert DATASETS["hep"].paper_nodes == 15_233
        assert DATASETS["hep"].paper_edges == 58_891
        assert DATASETS["phy"].paper_nodes == 37_154
        assert DATASETS["wiki"].paper_nodes == 2_394_385

    def test_unknown_dataset_rejected(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            get_dataset("nope")

    def test_get_dataset_matches_helper(self):
        a = get_dataset("hep", scale=0.02)
        b = hep(scale=0.02)
        assert a.num_nodes == b.num_nodes
        assert a.num_edges == b.num_edges


class TestSurrogates:
    def test_hep_scaled_counts(self):
        g = hep(scale=0.05)
        assert g.num_nodes == round(15_233 * 0.05)
        # Symmetrized configuration model: close to 2x the edge budget.
        target = 2 * round(58_891 * 0.05)
        assert 0.7 * target <= g.num_edges <= target

    def test_phy_scaled_counts(self):
        g = phy(scale=0.02)
        assert g.num_nodes == round(37_154 * 0.02)

    def test_wiki_directed_and_sparse(self):
        g = wiki(scale=0.0005)
        assert g.num_nodes >= 500
        # Talk-graph density: about 1.6 arcs per node.
        assert g.num_edges < 3 * g.num_nodes

    def test_deterministic_across_calls(self):
        a = hep(scale=0.02)
        b = hep(scale=0.02)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_custom_rng_changes_graph(self):
        a = hep(scale=0.02)
        b = hep(scale=0.02, rng=777)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_wiki_deterministic_across_calls(self):
        a = wiki(scale=0.001)
        b = wiki(scale=0.001)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_wiki_custom_rng_changes_graph(self):
        a = wiki(scale=0.001)
        b = wiki(scale=0.001, rng=777)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            hep(scale=0.0)
        with pytest.raises(ValueError):
            hep(scale=1.5)

    def test_minimum_size_floor(self):
        g = hep(scale=0.000001)
        assert g.num_nodes >= 200

    def test_hep_is_heavy_tailed(self):
        g = hep(scale=0.1)
        degrees = g.out_degrees()
        assert degrees.max() > 5 * degrees.mean()


class TestRealWiki:
    """REPRO_DATA_DIR loading of the real SNAP wiki-Talk edge list."""

    EDGES = "0 1\n0 2\n1 2\n2 0\n3 1\n"

    def test_no_env_means_no_real_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        assert real_wiki_path() is None

    def test_env_without_file_means_no_real_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        assert real_wiki_path() is None

    def test_real_path_found_plain_and_gzip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        gz = tmp_path / "wiki-Talk.txt.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write(self.EDGES)
        assert real_wiki_path() == gz
        plain = tmp_path / "wiki-Talk.txt"
        plain.write_text(self.EDGES)
        assert real_wiki_path() == plain  # plain checked before gzip

    def test_full_scale_wiki_loads_real_edge_list(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        (tmp_path / "wiki-Talk.txt").write_text("# comment\n" + self.EDGES)
        g = wiki(scale=1.0)
        assert g.num_nodes == 4
        assert g.num_edges == 5
        assert sorted(g.out_neighbors(0)) == [1, 2]

    def test_partial_scale_ignores_real_data(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        (tmp_path / "wiki-Talk.txt").write_text(self.EDGES)
        g = wiki(scale=0.001)
        assert g.num_nodes >= 500  # surrogate floor, not the 4-node real graph
