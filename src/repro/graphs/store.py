"""Memory-mapped graph storage: persist CSR arrays once, share them by ref.

A million-node graph does not belong inside a job pickle.  The paper's
wiki-Talk graph (2.4M nodes / 5M arcs) costs ~120MB as CSR arrays; shipping
that to every worker of the process backend — per job — is what capped the
benchmarks at hep scale.  This module splits graph *storage* from graph
*identity*:

:class:`GraphStore`
    A directory of named graphs, each persisted as one ``.npy`` file per
    CSR array (both directions plus the stable edge-id permutation) and a
    ``meta.json`` carrying the node/edge counts and the content
    fingerprint.  :meth:`GraphStore.open` memory-maps the arrays
    (``np.load(mmap_mode="r")``), so opening is O(1) and the OS page cache
    shares the bytes between every process on the machine.
    :meth:`GraphStore.ingest_edge_list` builds a stored graph straight from
    a SNAP-style edge list in bounded chunks — vectorized parse and
    ``np.searchsorted`` relabel, never a Python list of 5M tuples.

:class:`GraphRef`
    A picklable O(1) handle (path + fingerprint + counts) to a stored graph.
    Every graph :meth:`GraphStore.open` returns keeps its ref and pickles
    as it, so on the process backend a job over a stored graph pickles
    ~200 bytes instead of the CSR arrays.  Workers unpickle the ref
    through a per-process handle cache, so each worker maps the file once
    no matter how many jobs it runs.  In-memory graphs pickle their CSR
    arrays.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import cast

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.loaders import PathLike, relabel, stream_edge_array

__all__ = [
    "GraphRef",
    "GraphStore",
]

#: meta.json layout version, bumped on any array-layout change.
_FORMAT_VERSION = 1

#: The CSR arrays persisted per graph, in (filename stem, attribute) order.
_ARRAY_NAMES = ("out_indptr", "out_indices", "in_indptr", "in_indices", "edge_ids")


@dataclass(frozen=True)
class GraphRef:
    """Picklable O(1) stand-in for a stored graph.

    Carries everything jobs need without opening the file: ``num_nodes``
    bounds contract checks, ``fingerprint`` keys the selection cache
    identically to the in-memory graph it was saved from.  ``open`` goes
    through the per-process handle cache, so repeated resolution of the
    same ref — thousands of jobs on one worker — maps the file once.
    """

    path: str
    fingerprint: int
    num_nodes: int
    num_edges: int

    def open(self) -> DiGraph:
        """The mmap-backed :class:`DiGraph` (cached per process)."""
        return _cached_open(self)

    def __repr__(self) -> str:
        return (
            f"GraphRef(n={self.num_nodes}, m={self.num_edges}, "
            f"path={self.path!r})"
        )


# Per-process handle cache.  Callers' own threads may resolve refs
# concurrently, so writes happen under the lock; forked workers
# inherit the parent's dict, whose mmap handles remain valid post-fork, but
# the pid guard re-keys defensively in case the cache was captured mid-write.
_HANDLE_LOCK = threading.Lock()
_HANDLES: dict[tuple[str, int], DiGraph] = {}
_HANDLES_PID = os.getpid()


def _cached_open(ref: GraphRef) -> DiGraph:
    global _HANDLES_PID
    key = (ref.path, ref.fingerprint)
    with _HANDLE_LOCK:
        if _HANDLES_PID != os.getpid():
            _HANDLES.clear()
            _HANDLES_PID = os.getpid()
        graph = _HANDLES.get(key)
        if graph is not None:
            return graph
    # The mmap open happens outside the lock (it touches the filesystem);
    # a racing duplicate open is harmless — last writer wins, both views
    # alias the same on-disk pages.
    graph = _open_graph_dir(ref)
    with _HANDLE_LOCK:
        _HANDLES[key] = graph
    return graph


def clear_handle_cache() -> None:
    """Drop every cached mmap handle (mainly for tests)."""
    with _HANDLE_LOCK:
        _HANDLES.clear()


def _read_meta(directory: Path) -> dict[str, object]:
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise GraphError(f"{directory} is not a graph store entry (no meta.json)")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format") != _FORMAT_VERSION:
        raise GraphError(
            f"{meta_path}: unsupported store format {meta.get('format')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    return dict(meta)


class _StoredGraph(DiGraph):
    """A graph opened from a store: pickles as its O(1) :class:`GraphRef`.

    Unpickling goes through the handle cache, so a worker maps each stored
    graph once however many jobs carry it.
    """

    __slots__ = ("ref",)
    ref: GraphRef

    def __reduce__(self) -> tuple[object, tuple[GraphRef]]:
        return (_cached_open, (self.ref,))


def _open_graph_dir(ref: GraphRef) -> DiGraph:
    directory = Path(ref.path)
    meta = _read_meta(directory)
    fingerprint = int(meta["fingerprint"])  # type: ignore[arg-type]
    if fingerprint != ref.fingerprint:
        raise GraphError(
            f"{directory}: stored fingerprint {fingerprint:#x} does not "
            f"match the ref's {ref.fingerprint:#x}; the store entry "
            "was overwritten since the ref was created"
        )
    arrays = [
        np.load(directory / f"{name}.npy", mmap_mode="r") for name in _ARRAY_NAMES
    ]
    graph = cast(
        _StoredGraph,
        _StoredGraph._from_csr(
            int(meta["num_nodes"]),  # type: ignore[arg-type]
            *arrays,
            fingerprint=fingerprint,
        ),
    )
    graph.ref = ref
    return graph


def is_store_entry(path: PathLike) -> bool:
    """Whether *path* is a graph-store entry directory (has a meta.json)."""
    return (Path(path) / "meta.json").is_file()


class GraphStore:
    """A directory of named, memory-mappable CSR graphs."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise GraphError(f"invalid graph store name {name!r}")
        return self.root / name

    def __contains__(self, name: str) -> bool:
        return is_store_entry(self._entry(name))

    def list_graphs(self) -> list[str]:
        """Names of every stored graph, sorted."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and is_store_entry(entry)
        )

    # ------------------------------------------------------------------ #
    # save / open
    # ------------------------------------------------------------------ #

    def save(self, graph: DiGraph, name: str | None = None) -> GraphRef:
        """Persist *graph* under *name* (default: its fingerprint) and ref it.

        Saving is idempotent per content: the default name is derived from
        the fingerprint, so re-saving the same graph overwrites the entry
        with identical bytes.
        """
        if name is None:
            name = f"g{graph.fingerprint:016x}"
        directory = self._entry(name)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = (
            graph.out_indptr,
            graph.out_indices,
            graph.in_indptr,
            graph.in_indices,
            graph.edge_ids,
        )
        for array_name, array in zip(_ARRAY_NAMES, arrays):
            np.save(directory / f"{array_name}.npy", array)
        meta = {
            "format": _FORMAT_VERSION,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "fingerprint": graph.fingerprint,
        }
        with open(directory / "meta.json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return GraphRef(
            path=str(directory),
            fingerprint=graph.fingerprint,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
        )

    def ref(self, name: str) -> GraphRef:
        """An O(1) ref to a stored graph, from its metadata alone."""
        directory = self._entry(name)
        meta = _read_meta(directory)
        return GraphRef(
            path=str(directory),
            fingerprint=int(meta["fingerprint"]),  # type: ignore[arg-type]
            num_nodes=int(meta["num_nodes"]),  # type: ignore[arg-type]
            num_edges=int(meta["num_edges"]),  # type: ignore[arg-type]
        )

    def open(self, name: str) -> DiGraph:
        """Open a stored graph as a read-only mmap-backed :class:`DiGraph`."""
        return self.ref(name).open()

    def labels(self, name: str) -> np.ndarray | None:
        """Original node labels (dense id → label) if the entry has them."""
        path = self._entry(name) / "labels.npy"
        if not path.is_file():
            return None
        return np.load(path, mmap_mode="r")

    # ------------------------------------------------------------------ #
    # streaming ingestion
    # ------------------------------------------------------------------ #

    def ingest_edge_list(
        self,
        path: PathLike,
        name: str | None = None,
        directed: bool = True,
        comment: str = "#",
        chunk_lines: int = 1 << 20,
    ) -> GraphRef:
        """Build and persist a graph from a SNAP-style edge list.

        The file (optionally ``.gz``) is read *chunk_lines* lines at a
        time; each chunk is parsed with the C tokenizer (``np.loadtxt``)
        into an int64 array, so peak Python-object overhead is bounded by
        the chunk size regardless of total edge count.  Node labels are
        relabelled to dense ``0..n-1`` by :func:`~repro.graphs.loaders.relabel`
        (one sort and two ``np.searchsorted`` passes); the
        sorted original labels are saved alongside the CSR arrays as
        ``labels.npy`` (dense id → label) when they are not already dense.
        """
        source = Path(path)
        edges = stream_edge_array(source, comment=comment, chunk_lines=chunk_lines)
        labels, src, dst = relabel(edges[:, 0], edges[:, 1])
        del edges
        if not directed:
            src, dst = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
            )
        graph = DiGraph.from_arrays(labels.size, src, dst)
        del src, dst
        ref = self.save(graph, name or source.stem)
        dense = labels.size == 0 or bool(
            labels[0] == 0 and labels[-1] == labels.size - 1
        )
        if not dense:
            np.save(Path(ref.path) / "labels.npy", labels)
        return ref
