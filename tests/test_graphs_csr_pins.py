"""Pinned CSR digests: every construction path yields the same five arrays.

Each digest is sha256 over ``n``, ``m`` and the five CSR arrays (dtype and
bytes) that a :class:`~repro.graphs.digraph.DiGraph` holds.  Live-edge
masks, seeds and payoff tensors are all indexed by these arrays, so a
digest that moves means every downstream number may move with it.  The
values were recorded before the construction path was rewritten for
bounded temporaries.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.datasets import hep, phy, wiki
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    copying_model,
    erdos_renyi,
    karate_like_fixture,
    powerlaw_configuration,
)
from repro.graphs.loaders import load_edge_list
from repro.graphs.store import GraphStore


def csr_digest(graph: DiGraph) -> str:
    digest = hashlib.sha256()
    digest.update(f"{graph.num_nodes}:{graph.num_edges}".encode())
    for arr in (
        graph.out_indptr,
        graph.out_indices,
        graph.in_indptr,
        graph.in_indices,
        graph.edge_ids,
    ):
        digest.update(arr.dtype.str.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


NOISY = "716c7056932e2d31cfbb96d1f0d4ed8207bf11b3700688fab7b075c7677de9fc"
NOISY_UNDIRECTED = "4553f0cd000d445ec092564036bb5b4216354fb7d14c4d633a7f3917696971f7"


def _noisy_edges() -> tuple[int, np.ndarray]:
    """400 random arcs over 40 nodes: 9 self-loops, 48 repeated arcs."""
    rng = np.random.default_rng(20150531)
    return 40, rng.integers(0, 40, size=(400, 2))


def _noisy_stacked() -> DiGraph:
    n, edges = _noisy_edges()
    return DiGraph(n, edges)


def _noisy_arrays() -> DiGraph:
    n, edges = _noisy_edges()
    return DiGraph.from_arrays(n, edges[:, 0], edges[:, 1])


def _noisy_pairs() -> DiGraph:
    n, edges = _noisy_edges()
    return DiGraph(n, [tuple(pair) for pair in edges.tolist()])


def _noisy_undirected() -> DiGraph:
    n, edges = _noisy_edges()
    return DiGraph.from_undirected(n, edges.tolist())


def _noisy_reversed() -> DiGraph:
    return _noisy_stacked().reverse()


PINS: dict[str, tuple[Callable[[], DiGraph], str]] = {
    "hep-0.08": (
        lambda: hep(scale=0.08),
        "509a843a35a00c03dec5ac789381a8dcb6b7a47b7c344d7dcfa52b879327dd1a",
    ),
    "phy-0.05": (
        lambda: phy(scale=0.05),
        "787f1abe9d5bf0936ff94a2399a6b48170c34c3ce797bfc5b65ee2eb7e87c60f",
    ),
    "wiki-0.05": (
        lambda: wiki(scale=0.05),
        "3d61e1b9a3218ad43974b37d5fee635de15e34777a9cf467fc5c0435367059eb",
    ),
    "powerlaw_configuration": (
        lambda: powerlaw_configuration(500, 1500, rng=3),
        "b6068c9f0ccd782d091b56de1513a65ae08e823885c433327c6ae9ece246d87f",
    ),
    "erdos_renyi": (
        lambda: erdos_renyi(200, 900, rng=5),
        "e87affdfb3099ebbab9f464617241f6ce2eea3e113218ed22eaed474033bdb9a",
    ),
    "copying_model": (
        lambda: copying_model(300, out_edges=3, copy_probability=0.6, rng=11),
        "95e4609c85ded81e370ec2d0267704736db5862794ba70d6fbc9989a3d19fa93",
    ),
    "copying_model-boot-clique": (
        lambda: copying_model(3, out_edges=2, rng=1),
        "48c3eccb0cab450e5b0161c351424a97cef15b12ebfa50182800249a8974c0ea",
    ),
    "karate": (
        karate_like_fixture,
        "57868e90532771a7368e05ebd9ecbd1ba1512ffe47344d856cf707e338a80789",
    ),
    "noisy": (_noisy_stacked, NOISY),
    "noisy-undirected": (_noisy_undirected, NOISY_UNDIRECTED),
    "noisy-reversed": (
        _noisy_reversed,
        "1af13dd0db84462758ae253fd0a17024e8713c6b4ff82b8a1461dbe9067a33f2",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_csr_digest_is_pinned(name: str) -> None:
    build, expected = PINS[name]
    assert csr_digest(build()) == expected


def test_construction_paths_agree() -> None:
    """Stacked, parallel and Python-pair input build the same graph."""
    reference = csr_digest(_noisy_stacked())
    assert reference == NOISY
    assert csr_digest(_noisy_arrays()) == reference
    assert csr_digest(_noisy_pairs()) == reference


def _write_noisy(path: Path) -> None:
    """The noisy arcs under sparse labels 7 + 3·id (every id occurs)."""
    _, edges = _noisy_edges()
    lines = [f"{7 + 3 * u}\t{7 + 3 * v}" for u, v in edges.tolist()]
    path.write_text("# noisy\n" + "\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("directed", [True, False])
def test_loaders_build_the_pinned_graph(tmp_path: Path, directed: bool) -> None:
    """Relabelled file input builds the graph the arrays build."""
    path = tmp_path / "noisy.txt"
    _write_noisy(path)
    expected = NOISY if directed else NOISY_UNDIRECTED
    graph, label_map = load_edge_list(path, directed=directed)
    assert label_map == {7 + 3 * i: i for i in range(40)}
    assert csr_digest(graph) == expected
    store = GraphStore(tmp_path / "store")
    ref = store.ingest_edge_list(path, name="noisy", directed=directed)
    assert csr_digest(store.open("noisy")) == expected
    assert ref.fingerprint == graph.fingerprint
    assert store.labels("noisy").tolist() == [7 + 3 * i for i in range(40)]


def test_real_wiki_path_builds_the_pinned_graph(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    _write_noisy(tmp_path / "wiki-Talk.txt")
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    assert csr_digest(wiki(scale=1.0)) == NOISY
