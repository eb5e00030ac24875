"""A compact directed graph stored in CSR (compressed sparse row) form.

The cascade simulators in :mod:`repro.cascade` spend almost all of their time
iterating over out-neighbourhoods, so the graph is stored as two flat numpy
arrays per direction (``indptr``/``indices``), the standard CSR layout of
sparse-matrix libraries.  Nodes are dense integers ``0..n-1``; callers
with string-labelled data relabel at load time (:mod:`repro.graphs.loaders`
does this automatically).

The structure is immutable after construction: every simulation, snapshot and
seed-selection pass can then share a single instance without defensive
copies.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.utils.bitset import lookup_bits


#: Node ids are int32 in the CSR arrays, which caps *n*.
_MAX_NODES = int(np.iinfo(np.int32).max)

#: Elements per block when a build fills an m-sized array piecewise.
_BLOCK = 1 << 16


def _as_ids(values: object) -> np.ndarray:
    """*values* as an integer array; anything else is a :class:`GraphError`.

    Float and bool input is rejected rather than truncated.  An empty
    Python sequence carries no dtype and reads as an empty int64 array.
    """
    ids = np.asarray(values)
    if ids.size == 0 and not isinstance(values, np.ndarray):
        ids = ids.astype(np.int64)
    if ids.dtype.kind not in "iu":
        raise GraphError(f"edge endpoints must be integers, got dtype {ids.dtype}")
    return ids


def _edge_columns(edges: Iterable[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` column views of an ``(m, 2)`` array or an iterable of pairs."""
    edge_arr = _as_ids(edges if isinstance(edges, np.ndarray) else list(edges))
    if edge_arr.size == 0:
        edge_arr = edge_arr.reshape(0, 2)
    if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
        raise GraphError("edges must be (src, dst) pairs")
    return edge_arr[:, 0], edge_arr[:, 1]


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for non-negative *ids*.

    The keys ``ids * m + position`` are distinct, so one in-place
    unstable sort orders them exactly as the stable argsort would, and
    the sorted key modulo *m* is the position.  The caller bounds
    ``max(ids) * m`` below 2**63.
    """
    m = ids.size
    order = ids.astype(np.int64)
    order *= m
    # Positions go in a block at a time: a whole arange would be one more
    # m-sized temporary at the build's peak.
    for lo in range(0, m, _BLOCK):
        order[lo : lo + _BLOCK] += np.arange(lo, min(lo + _BLOCK, m))
    order.sort()
    order %= max(m, 1)
    return order


def _indptr(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of *ids* over ``0..n-1``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    return indptr


def _kept_arcs(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Mask of the arcs a graph keeps, or None when it keeps every arc.

    An arc is kept when it is not a self-loop and no earlier arc has the
    same ``(src, dst)``.  Sorting by destination and then, stably, by
    source orders the arcs by ``(src, dst, position)``, so the first of
    each run is the first occurrence.
    """
    order = _stable_order(dst)
    order = order[_stable_order(src[order])]
    run_src = src[order]
    run_dst = dst[order]
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    np.not_equal(run_src[1:], run_src[:-1], out=first[1:])
    first[1:] |= run_dst[1:] != run_dst[:-1]
    del run_src, run_dst
    keep = np.empty(order.size, dtype=bool)
    keep[order] = first
    del order, first
    keep &= src != dst
    return None if keep.all() else keep


class DiGraph:
    """Immutable directed graph over nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes *n*. Nodes are the integers ``0..n-1``; isolated
        nodes are allowed.
    edges:
        Integer ``(src, dst)`` pairs: an ``(m, 2)`` array or an iterable
        of pairs.  Self-loops are dropped and of repeated arcs the first
        occurrence is kept (the paper's cascade models are defined on
        simple graphs); the kept arcs, in input order, get the stable edge
        ids ``0..m-1``.  Non-integer input is a :class:`GraphError`.
    """

    __slots__ = (
        "_n",
        "_m",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_edge_ids",
        "_fingerprint",
    )

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]]) -> None:
        self._build(num_nodes, *_edge_columns(edges))

    def _build(self, num_nodes: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Fill the CSR arrays from parallel integer id arrays.

        Every m-sized temporary is dropped as soon as it is spent, so the
        build peaks below twice the finished arrays' bytes.
        """
        n = int(num_nodes)
        if n < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if n > _MAX_NODES:
            raise GraphError(f"num_nodes must be at most {_MAX_NODES}, got {n}")
        m = int(src.size)
        if m:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= n:
                raise GraphError(
                    f"edge endpoints must lie in [0, {n}), got range [{lo}, {hi}]"
                )
            if n * m >= 2**63:
                raise GraphError(f"{m} edges over {n} nodes overflow int64 sort keys")

        src = src.astype(np.int32, copy=False)
        dst = dst.astype(np.int32, copy=False)
        keep = _kept_arcs(src, dst)
        if keep is not None:
            src = src[keep]
            dst = dst[keep]
            del keep

        self._n = n
        self._m = int(src.size)
        self._out_indptr = _indptr(src, n)
        self._in_indptr = _indptr(dst, n)
        # In-CSR, stable by destination.
        in_order = _stable_order(dst)
        self._in_indices = src[in_order]
        del in_order
        # Out-CSR, stable by source.  ``edge_ids`` maps each out-CSR
        # position to its stable edge id, so per-edge attributes
        # (live-edge masks, probabilities) are flat arrays in id order.
        self._edge_ids = _stable_order(src)
        del src
        self._out_indices = dst[self._edge_ids]

        for arr in (
            self._out_indptr,
            self._out_indices,
            self._in_indptr,
            self._in_indices,
            self._edge_ids,
        ):
            arr.setflags(write=False)
        self._fingerprint: int | None = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes *n*."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges *m* (after self-loop/duplicate removal)."""
        return self._m

    @property
    def fingerprint(self) -> int:
        """Stable content hash of the CSR arrays.

        Two graphs with identical node count and edge structure share a
        fingerprint (the in-CSR is derived from the out-CSR, so hashing the
        out side plus the edge-id permutation suffices).  Computed lazily on
        first access and cached — the structure is immutable — so repeated
        cache-key construction (:mod:`repro.cache`) costs a slot read.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            digest.update(str(self._n).encode())
            for arr in (self._out_indptr, self._out_indices, self._edge_ids):
                digest.update(arr.tobytes())
            self._fingerprint = int.from_bytes(digest.digest(), "big")
        return self._fingerprint

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"DiGraph(n={self._n}, m={self._m})"

    def nodes(self) -> range:
        """All node ids, as a range."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(src, dst)`` pairs in out-CSR order."""
        for u in range(self._n):
            for v in self.out_neighbors(u):
                yield (u, int(v))

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        lo, hi = self._out_indptr[u], self._out_indptr[u + 1]
        return bool(np.any(self._out_indices[lo:hi] == v))

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"node {v} out of range [0, {self._n})")

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #

    def out_neighbors(self, v: int) -> np.ndarray:
        """Successors of *v* (read-only view)."""
        self._check_node(v)
        return self._out_indices[self._out_indptr[v]: self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Predecessors of *v* (read-only view)."""
        self._check_node(v)
        return self._in_indices[self._in_indptr[v]: self._in_indptr[v + 1]]

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Stable edge ids of *v*'s out-edges, aligned with :meth:`out_neighbors`."""
        self._check_node(v)
        return self._edge_ids[self._out_indptr[v]: self._out_indptr[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all nodes."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all nodes."""
        return np.diff(self._in_indptr)

    def out_degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    @property
    def out_indptr(self) -> np.ndarray:
        """Raw out-CSR row pointer (read-only); for vectorized hot loops."""
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        """Raw out-CSR column indices (read-only); for vectorized hot loops."""
        return self._out_indices

    @property
    def edge_ids(self) -> np.ndarray:
        """Stable edge id of each out-CSR position (read-only).

        Aligned with :attr:`out_indices`, so ``edge_ids[i]`` indexes per-edge
        attribute arrays (probabilities, live-edge masks) for the edge stored
        at out-CSR position *i* — the flat-array counterpart of
        :meth:`out_edge_ids` for vectorized hot loops.
        """
        return self._edge_ids

    @property
    def in_indptr(self) -> np.ndarray:
        """Raw in-CSR row pointer (read-only)."""
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """Raw in-CSR column indices (read-only)."""
        return self._in_indices

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def reachable_from(
        self,
        sources: Sequence[int],
        edge_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean array marking nodes reachable from *sources*.

        *edge_mask*, if given, is a boolean array of length *m* — or its
        packed-bitset equivalent (``uint64`` words, see
        :mod:`repro.utils.bitset`) — indexed by stable edge id; only edges
        whose mask entry is True are traversed (this is the
        live-edge-snapshot primitive used by MixGreedy).  Sources themselves
        are always marked reachable.
        """
        visited = np.zeros(self._n, dtype=bool)
        frontier: list[int] = []
        for s in sources:
            self._check_node(s)
            if not visited[s]:
                visited[s] = True
                frontier.append(int(s))

        indptr, indices, eids = self._out_indptr, self._out_indices, self._edge_ids
        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                lo, hi = indptr[u], indptr[u + 1]
                nbrs = indices[lo:hi]
                if edge_mask is not None:
                    nbrs = nbrs[lookup_bits(edge_mask, eids[lo:hi])]
                for v in nbrs:
                    if not visited[v]:
                        visited[v] = True
                        next_frontier.append(int(v))
            frontier = next_frontier
        return visited

    # ------------------------------------------------------------------ #
    # constructors / converters
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_csr(
        cls,
        num_nodes: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        edge_ids: np.ndarray,
        fingerprint: int | None = None,
    ) -> "DiGraph":
        """Adopt already-built CSR arrays without re-deriving them.

        This is the :class:`~repro.graphs.store.GraphStore` open path: the
        arrays are typically read-only ``np.memmap`` views of on-disk
        ``.npy`` files, so copying or re-sorting them would defeat the
        point.  The caller vouches that the arrays satisfy the constructor
        invariants (dedup'd, self-loop-free, consistent dtypes); the stored
        *fingerprint* is adopted so cache keys match the graph the arrays
        were saved from without a full re-hash.
        """
        n = int(num_nodes)
        if out_indptr.shape != (n + 1,) or in_indptr.shape != (n + 1,):
            raise GraphError(
                f"indptr arrays must have shape ({n + 1},), got "
                f"{out_indptr.shape} / {in_indptr.shape}"
            )
        m = int(out_indices.shape[0])
        if in_indices.shape[0] != m or edge_ids.shape[0] != m:
            raise GraphError(
                "indices/edge_ids lengths disagree: "
                f"{out_indices.shape[0]} / {in_indices.shape[0]} / "
                f"{edge_ids.shape[0]}"
            )
        graph = object.__new__(cls)
        graph._n = n
        graph._m = m
        graph._out_indptr = out_indptr
        graph._out_indices = out_indices
        graph._in_indptr = in_indptr
        graph._in_indices = in_indices
        graph._edge_ids = edge_ids
        for arr in (out_indptr, out_indices, in_indptr, in_indices, edge_ids):
            if arr.flags.writeable:
                arr.setflags(write=False)
        graph._fingerprint = fingerprint
        return graph

    @classmethod
    def from_arrays(cls, num_nodes: int, src: object, dst: object) -> "DiGraph":
        """Build from parallel integer source/destination arrays.

        The construction path behind every other constructor: the arrays
        are read, never kept or modified, and the result is the graph
        ``DiGraph(num_nodes, zip(src, dst))`` would build.
        """
        src_ids = _as_ids(src)
        dst_ids = _as_ids(dst)
        if src_ids.shape != dst_ids.shape or src_ids.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        graph = object.__new__(cls)
        graph._build(num_nodes, src_ids, dst_ids)
        return graph

    @classmethod
    def from_undirected(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        """Build a directed graph with both orientations of each edge.

        Collaboration networks (Hep, Phy in the paper) are undirected; the
        cascade models operate on directed edges, so each undirected edge
        becomes an arc in both directions — the convention of Kempe et al.
        The forward arcs come first, then every reversed arc.
        """
        src, dst = _edge_columns(edges)
        return cls.from_arrays(
            num_nodes, np.concatenate([src, dst]), np.concatenate([dst, src])
        )

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays indexed by stable edge id.

        Per-edge attributes (cascade probabilities, live-edge masks) are
        stored as flat length-*m* arrays indexed the same way, aligned with
        :meth:`out_edge_ids`.
        """
        src_csr = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._out_indptr))
        src = np.empty(self._m, dtype=np.int64)
        dst = np.empty(self._m, dtype=np.int64)
        src[self._edge_ids] = src_csr
        dst[self._edge_ids] = self._out_indices
        return src, dst

    def reverse(self) -> "DiGraph":
        """Return the graph with every edge reversed.

        The reversed arcs are numbered in this graph's out-CSR order.
        """
        src_rev = np.repeat(np.arange(self._n, dtype=np.int32), np.diff(self._out_indptr))
        return DiGraph.from_arrays(self._n, self._out_indices, src_rev)
