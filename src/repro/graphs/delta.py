"""Edge deltas: patch an immutable CSR graph without rebuilding it.

Graphs change — a follow edge appears, a retracted citation disappears —
and answering a query on the new version starts from the *patched* graph.
:func:`merge_delta` produces it with vectorized CSR surgery instead of
re-running the :class:`~repro.graphs.digraph.DiGraph` constructor's
sort/dedup pipeline, together with an account of what moved: which stable
edge ids survived (and what they were renumbered to), which were dropped
and which are new.  ``repro seeds GRAPH --delta FILE`` and
:meth:`repro.graphs.store.GraphStore.apply_delta` are built on it.

**Bit-identity contract.**  The merged graph is bit-identical — every CSR
array, the edge-id permutation, and therefore the fingerprint — to
``DiGraph(n, merged_edges)`` where ``merged_edges`` lists the surviving
edges in stable-edge-id order followed by the effective additions in input
order.  Property tests in ``tests/test_graphs_delta.py`` pin this for
random graphs and random deltas, so a query on the patched graph answers
exactly as it would on a graph loaded from the merged edge list.

Semantics:

* removals of absent edges and additions of present edges are no-ops
  (recorded in the :class:`AppliedDelta` counts, never an error);
* an edge listed in both ``removed`` and ``added`` is removed first and
  re-added, so it survives **with a fresh edge id** — its per-edge
  attributes are new-edge attributes;
* self-loops and duplicates inside ``added``/``removed`` are dropped the
  same way the constructor drops them (first occurrence wins);
* node count is preserved — deltas patch edges, not the vertex set.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph

__all__ = ["AppliedDelta", "EdgeDelta", "merge_delta"]


def _as_pairs(edges: Iterable[tuple[int, int]] | np.ndarray) -> tuple[tuple[int, int], ...]:
    """*edges* as integer pairs; anything that is not a 2-sequence is a GraphError."""
    try:
        return tuple((int(u), int(v)) for u, v in edges)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"delta edges must be (src, dst) pairs: {exc}") from exc


@dataclass(frozen=True)
class EdgeDelta:
    """A batch of edge insertions and removals against one graph version.

    Hashable and picklable — deltas travel through journals and job
    payloads.  Order inside each tuple matters only for duplicate entries
    (first occurrence wins, like the graph constructor).
    """

    added: tuple[tuple[int, int], ...] = ()
    removed: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(
        cls,
        added: Iterable[tuple[int, int]] | np.ndarray = (),
        removed: Iterable[tuple[int, int]] | np.ndarray = (),
    ) -> "EdgeDelta":
        """Normalize arbitrary pair iterables / ``(k, 2)`` arrays."""
        return cls(added=_as_pairs(added), removed=_as_pairs(removed))

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed

    def added_array(self) -> np.ndarray:
        """The additions as an ``(a, 2)`` int64 array."""
        return np.asarray(self.added, dtype=np.int64).reshape(-1, 2)

    def removed_array(self) -> np.ndarray:
        """The removals as an ``(r, 2)`` int64 array."""
        return np.asarray(self.removed, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class AppliedDelta:
    """The result of :func:`merge_delta`: the patched graph plus id maps.

    ``kept_old_ids[i]`` / ``kept_new_ids[i]`` pair up a surviving edge's
    stable id in the parent and child graph; per-edge attribute arrays
    (live-edge masks, probabilities) migrate with
    ``new_attr[kept_new_ids] = old_attr[kept_old_ids]``.
    """

    parent: DiGraph
    graph: DiGraph
    delta: EdgeDelta
    kept_old_ids: np.ndarray
    kept_new_ids: np.ndarray
    removed_old_ids: np.ndarray
    added_new_ids: np.ndarray
    added_edges: np.ndarray
    removed_edges: np.ndarray
    noop_added: int = 0
    noop_removed: int = 0

    @property
    def num_added(self) -> int:
        return int(self.added_edges.shape[0])

    @property
    def num_removed(self) -> int:
        return int(self.removed_edges.shape[0])

    @property
    def is_noop(self) -> bool:
        return self.num_added == 0 and self.num_removed == 0


def _normalize_pairs(pairs: np.ndarray, num_nodes: int, what: str) -> np.ndarray:
    """Constructor-compatible normalization: bounds, self-loops, dedup."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        raise GraphError(
            f"{what} endpoints must lie in [0, {num_nodes}), got range "
            f"[{pairs.min()}, {pairs.max()}]"
        )
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.size:
        keys = pairs[:, 0] * num_nodes + pairs[:, 1]
        _, unique_idx = np.unique(keys, return_index=True)
        pairs = pairs[np.sort(unique_idx)]
    return pairs


def _merge_direction(
    indptr: np.ndarray,
    indices: np.ndarray,
    position_ids: np.ndarray,
    keep_by_old_id: np.ndarray,
    new_id_of_old: np.ndarray,
    add_near: np.ndarray,
    add_far: np.ndarray,
    add_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge one CSR direction; rows are keyed by the *near* endpoint.

    ``position_ids`` maps CSR positions to stable edge ids; survivors keep
    their within-row order (old-id ascending, the constructor's stable-sort
    order) and additions land at row ends sorted by ``(near, add id)`` —
    exactly where a full rebuild would put them, because added ids exceed
    every survivor id.
    """
    num_rows = indptr.shape[0] - 1
    keep_pos = keep_by_old_id[position_ids]
    surv_indices = indices[keep_pos]
    surv_ids = new_id_of_old[position_ids[keep_pos]]
    row_of_pos = np.repeat(np.arange(num_rows, dtype=np.int64), np.diff(indptr))
    surv_counts = np.bincount(row_of_pos[keep_pos], minlength=num_rows)
    surv_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(surv_counts, out=surv_indptr[1:])

    if add_near.size == 0:
        out_indptr = surv_indptr
        return out_indptr, surv_indices.astype(np.int32), surv_ids.astype(np.int64)

    order = np.argsort(add_near, kind="stable")
    insert_at = surv_indptr[add_near[order] + 1]
    merged_indices = np.insert(surv_indices, insert_at, add_far[order])
    merged_ids = np.insert(surv_ids, insert_at, add_ids[order])
    add_counts = np.bincount(add_near, minlength=num_rows)
    merged_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(surv_counts + add_counts, out=merged_indptr[1:])
    return merged_indptr, merged_indices.astype(np.int32), merged_ids.astype(np.int64)


def merge_delta(graph: DiGraph, delta: EdgeDelta) -> AppliedDelta:
    """Apply *delta* to *graph* via vectorized CSR merge.

    Returns an :class:`AppliedDelta` whose ``graph`` is bit-identical to a
    full rebuild from the merged edge list (see the module docstring for
    the exact ordering contract).  O(m + a log a) with numpy constants —
    no per-edge Python loop and no re-sort of the surviving edges.
    """
    n = graph.num_nodes
    added = _normalize_pairs(delta.added_array(), n, "added edge")
    removed = _normalize_pairs(delta.removed_array(), n, "removed edge")

    src_old, dst_old = graph.edge_array()
    keys_old = src_old * n + dst_old

    if removed.size:
        removed_keys = removed[:, 0] * n + removed[:, 1]
        drop_by_old_id = np.isin(keys_old, removed_keys)
    else:
        drop_by_old_id = np.zeros(graph.num_edges, dtype=bool)
    keep_by_old_id = ~drop_by_old_id
    removed_old_ids = np.flatnonzero(drop_by_old_id)
    noop_removed = int(removed.shape[0]) - int(removed_old_ids.shape[0])
    removed_edges = np.column_stack(
        [src_old[removed_old_ids], dst_old[removed_old_ids]]
    ).reshape(-1, 2)

    if added.size:
        surviving_keys = keys_old[keep_by_old_id]
        present = np.isin(added[:, 0] * n + added[:, 1], surviving_keys)
        noop_added = int(present.sum())
        added = added[~present]
    else:
        noop_added = 0

    kept_old_ids = np.flatnonzero(keep_by_old_id)
    num_survivors = int(kept_old_ids.shape[0])
    new_id_of_old = np.cumsum(keep_by_old_id, dtype=np.int64) - 1
    kept_new_ids = new_id_of_old[kept_old_ids]
    num_added = int(added.shape[0])
    added_new_ids = num_survivors + np.arange(num_added, dtype=np.int64)

    add_src = added[:, 0] if num_added else np.zeros(0, dtype=np.int64)
    add_dst = added[:, 1] if num_added else np.zeros(0, dtype=np.int64)

    out_indptr, out_indices, edge_ids = _merge_direction(
        graph.out_indptr,
        graph.out_indices,
        graph.edge_ids,
        keep_by_old_id,
        new_id_of_old,
        add_src,
        add_dst,
        added_new_ids,
    )
    in_indptr, in_indices, in_edge_ids = _merge_direction(
        graph.in_indptr,
        graph.in_indices,
        graph.in_edge_ids,
        keep_by_old_id,
        new_id_of_old,
        add_dst,
        add_src,
        added_new_ids,
    )

    merged = DiGraph._from_csr(
        n, out_indptr, out_indices, in_indptr, in_indices, edge_ids
    )
    in_edge_ids.setflags(write=False)
    merged._in_edge_ids = in_edge_ids

    return AppliedDelta(
        parent=graph,
        graph=merged,
        delta=delta,
        kept_old_ids=kept_old_ids,
        kept_new_ids=kept_new_ids,
        removed_old_ids=removed_old_ids,
        added_new_ids=added_new_ids,
        added_edges=added.reshape(-1, 2),
        removed_edges=removed_edges,
        noop_added=noop_added,
        noop_removed=noop_removed,
    )
