"""Tests for repro.graphs.loaders (SNAP edge-list I/O)."""

import gzip
import warnings

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.digraph import DiGraph
from repro.graphs.loaders import load_edge_list, save_edge_list, stream_edge_array


class TestLoadEdgeList:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        graph, labels = load_edge_list(path)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert labels == {0: 0, 1: 1, 2: 2}

    def test_sparse_labels_compacted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 5\n5 7\n")
        graph, labels = load_edge_list(path)
        assert graph.num_nodes == 3
        assert set(labels) == {5, 7, 100}
        assert graph.has_edge(labels[100], labels[5])

    def test_undirected_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        graph, _ = load_edge_list(path, directed=False)
        assert graph.num_edges == 2

    def test_tab_separated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\t1\n")
        graph, _ = load_edge_list(path)
        assert graph.num_edges == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n0 1\n\n")
        graph, _ = load_edge_list(path)
        assert graph.num_edges == 1

    def test_gzip_load(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 2\n")
        graph, _ = load_edge_list(path)
        assert graph.num_edges == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# only comments\n")
        graph, labels = load_edge_list(path)
        assert graph.num_nodes == 0
        assert labels == {}

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nonlyone\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(path)


class TestSaveEdgeList:
    def test_round_trip(self, tmp_path, karate):
        path = tmp_path / "k.txt"
        save_edge_list(karate, path)
        loaded, _ = load_edge_list(path)
        assert loaded.num_nodes == karate.num_nodes
        assert sorted(loaded.edges()) == sorted(karate.edges())

    def test_header_written_as_comments(self, tmp_path):
        graph = DiGraph(2, [(0, 1)])
        path = tmp_path / "g.txt"
        save_edge_list(graph, path, header="hello\nworld")
        text = path.read_text()
        assert "# hello" in text
        assert "# world" in text
        assert "# Nodes: 2 Edges: 1" in text

    def test_gzip_round_trip(self, tmp_path):
        graph = DiGraph(3, [(0, 1), (2, 0)])
        path = tmp_path / "g.txt.gz"
        save_edge_list(graph, path)
        loaded, _ = load_edge_list(path)
        assert sorted(loaded.edges()) == sorted(graph.edges())


class TestChunkedParsing:
    def test_malformed_line_in_a_later_chunk_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        lines = [f"{i} {i + 1}" for i in range(10)]
        lines[7] = "7 x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:8: non-integer"):
            stream_edge_array(path, chunk_lines=3)

    def test_labels_only_int_reads_parse_like_int(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1_000 2\n")
        edges = stream_edge_array(path, chunk_lines=1)
        assert edges.tolist() == [[0, 1], [1000, 2]]

    def test_comment_only_file_loads_without_warning(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# only comments\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph, _ = load_edge_list(path)
        assert graph.num_nodes == 0

    @pytest.mark.parametrize("line", ["0.5 1.7", "1e3 2"])
    @pytest.mark.parametrize("reader", [load_edge_list, stream_edge_array])
    def test_float_labels_rejected(self, tmp_path, reader, line):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:2: non-integer"):
            reader(path)

    def test_float_label_rejected_when_numpy_only_warns(self, tmp_path, monkeypatch):
        # numpy 1.x's loadtxt truncates a float to an int and only warns.
        def truncating_loadtxt(lines, **kwargs):
            warnings.warn("Parsing an integer via a float", DeprecationWarning)
            return np.array([[0, 1]], dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "g.txt"
        path.write_text("0.5 1.7\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:1: non-integer"):
            stream_edge_array(path)

    def test_inline_comment_parses_on_both_paths(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1#x\n2 3 # y\n")
        assert stream_edge_array(path).tolist() == [[0, 1], [2, 3]]
        # '1_000' sends the chunk to the line-by-line reader.
        path.write_text("0 1#x\n2 3 # y\n1_000 2\n")
        assert stream_edge_array(path).tolist() == [[0, 1], [2, 3], [1000, 2]]
