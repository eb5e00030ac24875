"""All-source reachability on live-edge snapshots.

``NewGreedy`` (Chen, Wang & Yang, KDD'09) — the first round of MixGreedy —
needs, for each snapshot, the size of the reachable set of *every* node.
Running a BFS from each node is quadratic in the worst case; instead the
live subgraph is condensed into its strongly connected components and the
reachable sets are propagated through the condensation DAG, children
before parents.  Every step is a whole-array operation:

* the live subgraph is one vectorized mask lookup over the CSR edge ids;
* SCC labels come from :func:`scipy.sparse.csgraph.connected_components`
  (``connection="strong"``);
* condensation edges are the unique ``(label[src], label[dst])`` keys;
* the DAG is processed in sink-first Kahn levels.  A level's reach lists
  are one sorted unique over ``(component, reachable component)`` keys
  gathered from its children's lists plus the components themselves, and
  a component's reach size is the summed member count of its list.

*edge_mask* may be boolean-style or a packed bitset
(:mod:`repro.utils.bitset`); results are identical either way.  Reach
sizes are integers, so the result is exact whatever the processing order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.cascade.kernels import segment_ranges, sorted_unique
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import lookup_bits


def all_reach_sizes(graph: DiGraph, edge_mask: np.ndarray | None = None) -> np.ndarray:
    """Size of the reachable set of every node, under an optional live-edge mask.

    Returns an integer array ``sizes`` with ``sizes[v] = |R(v)|`` including
    *v* itself.  *edge_mask* may be boolean-style or a packed bitset.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    indptr = graph.out_indptr
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = np.asarray(graph.out_indices, dtype=np.int64)
    if edge_mask is not None:
        live = np.asarray(lookup_bits(edge_mask, graph.edge_ids), dtype=bool)
        src, dst = src[live], dst[live]

    live_graph = csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
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
    # buffer[start : start + length].
    buffer = np.empty(max(2 * num_comps, 16), dtype=np.int64)
    used = 0
    start = np.zeros(num_comps, dtype=np.int64)
    length = np.zeros(num_comps, dtype=np.int64)
    comp_sizes = np.zeros(num_comps, dtype=np.int64)

    level = np.flatnonzero(pending == 0)
    while level.size:
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
        heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        # ``level`` is sorted and every component owns at least itself, so
        # segment i of ``pairs`` is level[i]'s reach list.
        comp_sizes[level] = np.add.reduceat(members[reached], heads)
        if used + pairs.size > buffer.size:
            grown = np.empty(max(2 * buffer.size, used + pairs.size), dtype=np.int64)
            grown[:used] = buffer[:used]
            buffer = grown
        buffer[used : used + pairs.size] = reached
        start[level] = used + heads
        length[level] = np.diff(np.r_[heads, pairs.size])
        used += pairs.size

        # Kahn step: parents whose last pending child was in this level.
        p_lo, p_hi = child_ptr[level], child_ptr[level + 1]
        ups = parents_of[segment_ranges(p_lo, p_hi - p_lo)]
        np.subtract.at(pending, ups, 1)
        ups = sorted_unique(ups)
        level = ups[pending[ups] == 0]
    return comp_sizes[label]
