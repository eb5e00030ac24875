"""All-source reachability on live-edge snapshots.

``NewGreedy`` (Chen, Wang & Yang, KDD'09) — the first round of MixGreedy —
needs, for each snapshot, the size of the reachable set of *every* node.
Running a BFS from each node is quadratic in the worst case; instead the
live subgraph is condensed into its strongly connected components and the
reachable sets are propagated through the condensation DAG, children
before parents.

A stack of snapshots is handled as **one block-diagonal graph**: node *v*
of snapshot *s* becomes node ``s * n + v``, so the live edges of different
snapshots never meet and every step below runs once for the whole stack:

* the live ``(snapshot, edge)`` pairs come from one ``flatnonzero`` over
  the (unpacked) mask matrix, so only live edges are ever materialized as
  integers (:func:`~repro.cascade.kernels.live_edge_pairs`, which the
  snapshot oracle's block-diagonal live CSR is built from too);
* block nodes without a live edge reach only themselves and stay out of
  the DP, so its per-component arrays scale with the live edges rather
  than with ``snapshots * n``;
* SCC labels come from one :func:`scipy.sparse.csgraph.connected_components`
  call (``connection="strong"``) over the union graph;
* condensation edges are the unique ``(label[src], label[dst])`` keys;
* the union condensation is processed in sink-first Kahn levels, so the
  number of levels is the deepest snapshot's depth, not the sum over
  snapshots.  A level's reach lists are one sorted unique over
  ``(component, reachable component)`` keys gathered from its children's
  lists plus the components themselves, and a component's reach size is
  the summed member count of its list.

Masks may be boolean-style or packed bitsets (:mod:`repro.utils.bitset`);
results are identical either way.  Reach sizes are integers, so the result
is exact whatever the processing order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.cascade.kernels import live_edge_pairs, segment_ranges, sorted_unique
from repro.graphs.digraph import DiGraph


def all_reach_sizes(graph: DiGraph, masks: np.ndarray | None = None) -> np.ndarray:
    """Size of the reachable set of every node in every stacked snapshot.

    *masks* is a ``(snapshots, edges-or-words)`` stack — the layout of
    :attr:`~repro.cascade.snapshots.SnapshotOracle.mask_matrix` — and the
    result is the ``(snapshots, n)`` integer array with ``sizes[s, v] =
    |R_s(v)|`` including *v* itself.  A 1-D mask, or ``None`` for the whole
    graph, is a one-row stack and returns that row's ``(n,)`` sizes.
    """
    if masks is not None:
        masks = np.asarray(masks)
        if masks.ndim == 2:
            return _reach_sizes(graph, masks)
        masks = masks[None, :]
    return _reach_sizes(graph, masks)[0]


def _reach_sizes(graph: DiGraph, masks: np.ndarray | None) -> np.ndarray:
    snapshots = 1 if masks is None else masks.shape[0]
    n = graph.num_nodes
    total = snapshots * n
    # The DP runs over the block nodes with a live edge, renumbered in order.
    src, dst = live_edge_pairs(graph, masks)
    active = np.zeros(total, dtype=bool)
    active[src] = True
    active[dst] = True
    src, dst = np.cumsum(active)[np.stack([src, dst])] - 1
    num_active = int(active.sum())
    live_graph = csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)),
        shape=(num_active, num_active),
    )
    num_comps, labels = connected_components(
        live_graph, directed=True, connection="strong"
    )
    label = np.asarray(labels, dtype=np.int64)
    members = np.bincount(label, minlength=num_comps)

    # Condensation DAG: unique cross-component edges, parent-major.
    cs, cd = label[src], label[dst]
    cross = cs != cd
    keys = sorted_unique(cs[cross] * num_comps + cd[cross])
    parent, child = keys // num_comps, keys % num_comps
    # Edges grouped by parent (keys are parent-major already) and by child.
    parent_ptr = np.searchsorted(parent, np.arange(num_comps + 1))
    by_child = np.argsort(child, kind="stable")
    child_ptr = np.searchsorted(child[by_child], np.arange(num_comps + 1))
    parents_of = parent[by_child]
    pending = np.diff(parent_ptr)  # children not yet processed

    # Reach lists live in one growing buffer; a component's list is
    # buffer[start : start + length].  Sinks reach only themselves.
    done = np.flatnonzero(pending == 0)
    buffer = np.empty(max(2 * num_comps, 16), dtype=np.int64)
    buffer[: done.size] = done
    used = done.size
    start = np.zeros(num_comps, dtype=np.int64)
    start[done] = np.arange(done.size)
    length = (pending == 0).astype(np.int64)
    comp_sizes = np.where(pending == 0, members, 0)

    while done.size:
        # Kahn step: parents whose last pending child was just done.
        p_lo, p_hi = child_ptr[done], child_ptr[done + 1]
        ups = parents_of[segment_ranges(p_lo, p_hi - p_lo)]
        np.subtract.at(pending, ups, 1)
        ups = sorted_unique(ups)
        level = ups[pending[ups] == 0]
        if level.size == 0:
            break
        # Edges out of this level's components; children are all done.
        e_lo, e_hi = parent_ptr[level], parent_ptr[level + 1]
        edge_idx = segment_ranges(e_lo, e_hi - e_lo)
        kids = child[edge_idx]
        kid_len = length[kids]
        gathered = buffer[segment_ranges(start[kids], kid_len)]
        owners = np.repeat(parent[edge_idx], kid_len)
        pairs = sorted_unique(
            np.concatenate([owners, level]) * num_comps
            + np.concatenate([gathered, level])
        )
        owner, reached = pairs // num_comps, pairs % num_comps
        heads = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        # ``level`` is sorted and every component owns at least itself, so
        # segment i of ``pairs`` is level[i]'s reach list.
        comp_sizes[level] = np.add.reduceat(members[reached], heads)
        if used + pairs.size > buffer.size:
            grown = np.empty(max(2 * buffer.size, used + pairs.size), dtype=np.int64)
            grown[:used] = buffer[:used]
            buffer = grown
        buffer[used : used + pairs.size] = reached
        start[level] = used + heads
        length[level] = np.diff(heads, append=pairs.size)
        used += pairs.size
        done = level
    sizes = np.ones(total, dtype=np.int64)
    sizes[active] = comp_sizes[label]
    return sizes.reshape(snapshots, n)
