"""GraphStore persistence, GraphRef payloads, and streaming ingestion."""

from __future__ import annotations

import gzip
import pickle
import re

import numpy as np
import pytest

from repro.errors import GraphError
from repro.exec.executor import Executor
from repro.exec.jobs import CompetitiveJob, ProfileCell
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.loaders import load_edge_list, stream_edge_array
from repro.graphs.store import (
    GraphRef,
    GraphStore,
    clear_handle_cache,
    is_store_entry,
)
from repro.utils.bitset import is_packed, unpack_bits


@pytest.fixture(autouse=True)
def _fresh_handle_cache():
    clear_handle_cache()
    yield
    clear_handle_cache()


def _spread_job(graph, model, seeds, rounds):
    """The one-cell, one-group job of a single-group spread σ0(seeds)."""
    return CompetitiveJob(
        graph=graph, model=model, cells=(ProfileCell(seed_sets=(seeds,), rounds=rounds),)
    )


class TestSaveOpenRoundTrip:
    def test_round_trip_preserves_structure_and_fingerprint(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        ref = store.save(karate, "karate")
        assert "karate" in store
        assert store.list_graphs() == ["karate"]
        assert ref.num_nodes == karate.num_nodes
        assert ref.num_edges == karate.num_edges
        assert ref.fingerprint == karate.fingerprint
        opened = store.open("karate")
        assert opened.num_nodes == karate.num_nodes
        assert opened.fingerprint == karate.fingerprint
        for v in range(karate.num_nodes):
            np.testing.assert_array_equal(
                opened.out_neighbors(v), karate.out_neighbors(v)
            )
            np.testing.assert_array_equal(
                opened.in_neighbors(v), karate.in_neighbors(v)
            )

    def test_opened_graph_is_memory_mapped(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        store.save(karate, "karate")
        clear_handle_cache()
        opened = store.open("karate")
        assert isinstance(opened._out_indices, np.memmap)

    def test_default_name_is_fingerprint(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        ref = store.save(karate)
        assert ref.path.endswith(f"g{karate.fingerprint:016x}")

    def test_ref_reads_meta_only(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        store.save(karate, "karate")
        ref = store.ref("karate")
        assert ref.fingerprint == karate.fingerprint

    def test_missing_entry_raises(self, tmp_path):
        store = GraphStore(tmp_path)
        with pytest.raises(GraphError):
            store.open("nope")

    def test_bad_names_rejected(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(GraphError):
                store.save(karate, bad)

    def test_fingerprint_mismatch_raises(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        ref = store.save(karate, "karate")
        tampered = GraphRef(
            path=ref.path,
            fingerprint=ref.fingerprint ^ 1,
            num_nodes=ref.num_nodes,
            num_edges=ref.num_edges,
        )
        with pytest.raises(GraphError, match="fingerprint"):
            tampered.open()
        # A pickled store-opened graph whose entry was rewritten since: the
        # unpickling worker (fresh handle cache) must refuse the new bytes.
        blob = pickle.dumps(store.open("karate"))
        clear_handle_cache()
        store.save(erdos_renyi(20, 40, rng=1), "karate")
        with pytest.raises(GraphError, match=f"{re.escape(ref.path)}.*fingerprint"):
            pickle.loads(blob)

    def test_is_store_entry(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        ref = store.save(karate, "karate")
        assert is_store_entry(ref.path)
        assert not is_store_entry(tmp_path)


class TestGraphRefPayloads:
    def test_ref_pickles_small_and_resolves(self, tmp_path):
        graph = erdos_renyi(500, 3000, rng=3)
        store = GraphStore(tmp_path)
        ref = store.save(graph, "er")
        payload = pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)
        # O(1): a ref pickles in hundreds of bytes regardless of graph size
        assert len(payload) < 1024
        restored = pickle.loads(payload)
        resolved = restored.open()
        assert resolved.fingerprint == graph.fingerprint

    def test_handle_cache_returns_same_object(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        ref = store.save(karate, "karate")
        assert ref.open() is ref.open()

    def test_spread_job_runs_from_ref(self, tmp_path, karate):
        store = GraphStore(tmp_path)
        store.save(karate, "karate")
        model = IndependentCascade(0.1)
        direct = _spread_job(karate, model, (0, 1), 5)
        via_ref = pickle.loads(
            pickle.dumps(
                _spread_job(store.open("karate"), model, (0, 1), 5)
            )
        )
        with Executor("serial") as executor:
            a = executor.estimates([direct], rng=11)
            b = executor.estimates([via_ref], rng=11)
        assert a[0][0].mean == b[0][0].mean

    def test_in_memory_graph_pickles_as_csr(self, karate):
        restored = pickle.loads(pickle.dumps(karate))
        assert type(restored) is DiGraph
        assert restored.fingerprint == karate.fingerprint
        assert not isinstance(restored.out_indices, np.memmap)

    def test_store_opened_graph_pickles_as_ref(self, tmp_path):
        graph = erdos_renyi(500, 3000, rng=3)
        store = GraphStore(tmp_path)
        store.save(graph, "er")
        opened = store.open("er")
        payload = pickle.dumps(opened, protocol=pickle.HIGHEST_PROTOCOL)
        # O(1): the ref, not the arrays, regardless of graph size
        assert len(payload) < 1024
        assert len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)) > 10_000
        # unpickling in the same process hits the handle cache
        assert pickle.loads(payload) is opened


class TestIngestEdgeList:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_ingest_matches_load_edge_list(self, tmp_path):
        text = "# comment\n10 20\n20 30\n10 30\n30 10\n"
        src = self._write(tmp_path / "edges.txt", text)
        expected, label_map = load_edge_list(src)
        store = GraphStore(tmp_path / "store")
        ref = store.ingest_edge_list(src, "small")
        opened = store.open("small")
        assert opened.num_nodes == expected.num_nodes
        assert opened.num_edges == expected.num_edges
        assert opened.fingerprint == expected.fingerprint
        labels = store.labels("small")
        assert labels is not None
        np.testing.assert_array_equal(labels, sorted(label_map))
        assert ref.num_edges == 4

    def test_ingest_gzip(self, tmp_path):
        raw = "0 1\n1 2\n2 0\n"
        src = tmp_path / "edges.txt.gz"
        with gzip.open(src, "wt") as handle:
            handle.write(raw)
        store = GraphStore(tmp_path / "store")
        store.ingest_edge_list(src, "gz")
        opened = store.open("gz")
        assert opened.num_nodes == 3
        assert opened.num_edges == 3
        # dense 0..n-1 labels need no labels.npy sidecar
        assert store.labels("gz") is None

    def test_ingest_undirected_doubles_edges(self, tmp_path):
        src = self._write(tmp_path / "edges.txt", "0 1\n1 2\n")
        store = GraphStore(tmp_path / "store")
        store.ingest_edge_list(src, "undir", directed=False)
        opened = store.open("undir")
        assert opened.num_edges == 4
        np.testing.assert_array_equal(sorted(opened.out_neighbors(1)), [0, 2])

    def test_stream_edge_array_chunked(self, tmp_path):
        lines = "\n".join(f"{i} {i + 1}" for i in range(100))
        src = self._write(tmp_path / "edges.txt", lines + "\n")
        edges = stream_edge_array(src, chunk_lines=7)
        assert edges.shape == (100, 2)
        np.testing.assert_array_equal(edges[:, 0], np.arange(100))
        np.testing.assert_array_equal(edges[:, 1], np.arange(1, 101))


class TestLoaderVectorization:
    def test_ndarray_input_fast_path(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)], dtype=np.int64)
        from_array = DiGraph(4, edges)
        from_list = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert from_array.fingerprint == from_list.fingerprint

    def test_searchsorted_relabel_matches_order(self, tmp_path):
        # non-dense labels in scrambled order exercise the relabel path
        text = "500 7\n7 42\n42 500\n"
        src = tmp_path / "edges.txt"
        src.write_text(text)
        graph, label_map = load_edge_list(src)
        assert graph.num_nodes == 3
        assert sorted(label_map) == [7, 42, 500]
        # labels are assigned in sorted-label order
        assert label_map[7] == 0 and label_map[42] == 1 and label_map[500] == 2
        np.testing.assert_array_equal(graph.out_neighbors(2), [0])


class TestShardedPools:
    def test_single_shard_masks_match_legacy_bool_sample(self, karate):
        from repro.cascade.snapshots import sample_snapshots
        from repro.utils.rng import as_rng

        model = IndependentCascade(0.1)
        pool = SnapshotPool(karate)
        pool.token(42)
        masks = pool.masks(model, 5)
        assert all(is_packed(m) for m in masks)
        key = pool._request_key(model, 5)
        legacy = sample_snapshots(karate, model, 5, as_rng(pool._child_seed(key)))
        for packed, expected in zip(masks, legacy):
            np.testing.assert_array_equal(
                unpack_bits(packed, karate.num_edges), expected
            )


class TestPayloadMetric:
    def test_serial_backend_records_no_payload(self, karate, tmp_path):
        from repro.obs.journal import RunJournal, attached, read_journal

        model = IndependentCascade(0.1)
        job = _spread_job(karate, model, (0,), 2)
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal, attached(journal):
            with Executor("serial") as executor:
                executor.run([job], rng=1)
        starts = [
            e for e in read_journal(path) if e["event"] == "batch_start"
        ]
        assert starts and "payload_bytes" not in starts[0]

    def test_process_backend_journals_payload_bytes(self, karate, tmp_path):
        from repro.obs.journal import RunJournal, attached, read_journal

        store = GraphStore(tmp_path / "store")
        store.save(karate, "karate")
        model = IndependentCascade(0.1)
        raw = _spread_job(karate, model, (0,), 1)
        slim = _spread_job(store.open("karate"), model, (0,), 1)
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal, attached(journal):
            with Executor("process", workers=2) as executor:
                executor.run([raw], rng=1)
                executor.run([slim], rng=1)
        starts = [
            e for e in read_journal(path) if e["event"] == "batch_start"
        ]
        assert len(starts) == 2
        assert starts[0]["payload_bytes"] > starts[1]["payload_bytes"]
        # the ref payload is O(1): well under a kilobyte
        assert starts[1]["payload_bytes"] < 1024
