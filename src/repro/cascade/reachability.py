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
* SCC labels come from one :func:`strong_components` call over the union
  graph: a numpy trim + forward-backward colouring (below);
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

:func:`strong_components` is the trim + colouring SCC of Orzan and of Hong
et al. (SC'13) as whole-array numpy steps.  Live-edge graphs are mostly
acyclic with small SCCs, so a few sweeps that drop every arc whose tail has
no in-arc or whose head has no out-arc leave a core of ~10-15% of the
nodes.  On the core, under scrambled ids, every node takes the largest id
that reaches it (max-propagation with pointer jumping: whatever reaches
``colour[v]`` reaches *v*); a node whose colour is its own id roots its
colour class, and its SCC is the part of the class that reaches it back.
Resolved SCCs leave the graph and the colouring repeats.  A graph the
colouring does not settle within a bounded number of sweeps (a long path
inside a large SCC) is finished by an iterative Tarjan, so the worst case
stays linear.
"""

from __future__ import annotations

import numpy as np

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
    num_comps, label = strong_components(int(active.sum()), src, dst)
    members = np.bincount(label, minlength=num_comps)

    # Condensation DAG: unique cross-component edges, parent-major.
    cs, cd = label[src], label[dst]
    cross = cs != cd
    keys = sorted_unique(cs[cross] * num_comps + cd[cross])
    parent, child = keys // num_comps, keys % num_comps
    # Edges grouped by parent (keys are parent-major already) and by child;
    # the order of a child's parents does not matter, so no stable sort.
    pending = np.bincount(parent, minlength=num_comps)  # children not yet done
    parent_ptr = _offsets(pending)
    child_ptr = _offsets(np.bincount(child, minlength=num_comps))
    parents_of = parent[np.argsort(child)]

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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of per-row *counts*."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def strong_components(
    num_nodes: int, src: np.ndarray, dst: np.ndarray
) -> tuple[int, np.ndarray]:
    """Strongly connected components of the digraph with arcs ``src[i] -> dst[i]``.

    Returns ``(count, labels)`` with ``labels[v]`` in ``[0, count)``; the
    numbering is deterministic but otherwise arbitrary.  Self-loops and
    parallel arcs are allowed.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    loops = src == dst
    src, dst = _trim(num_nodes, src[~loops], dst[~loops])
    root = np.arange(num_nodes)
    if src.size:
        in_core = np.zeros(num_nodes, dtype=bool)
        in_core[src] = True
        in_core[dst] = True
        core = np.flatnonzero(in_core)
        # The colouring runs on scrambled ids, so that no id order the
        # caller's numbering happens to follow along a path slows it down.
        node_of = core[_scrambled_order(core.size)]
        scrambled = np.empty(num_nodes, dtype=np.int64)
        scrambled[node_of] = np.arange(core.size)
        roots = _colour_roots(core.size, scrambled[src], scrambled[dst])
        root[core] = node_of[roots][scrambled[core]]
    is_root = np.zeros(num_nodes, dtype=bool)
    is_root[root] = True
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def _trim(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop arcs that lie on no cycle, while a sweep still drops many.

    An arc whose tail has no in-arc or whose head has no out-arc is on no
    cycle.  Each sweep costs the remaining arcs, so sweeping stops once one
    keeps more than 7/8 of them: a long path would otherwise lose one arc
    per end per sweep, and the colouring resolves what is left anyway.
    """
    has_in = np.zeros(num_nodes, dtype=bool)
    has_out = np.zeros(num_nodes, dtype=bool)
    while src.size:
        has_in[:] = False
        has_in[dst] = True
        has_out[:] = False
        has_out[src] = True
        keep = has_in[src] & has_out[dst]
        kept = int(np.count_nonzero(keep))
        if kept == keep.size:
            break
        src, dst = src[keep], dst[keep]
        if 8 * kept > 7 * keep.size:
            break
    return src, dst


def _scrambled_order(count: int) -> np.ndarray:
    """A fixed pseudo-random permutation of ``range(count)`` (splitmix64 keys)."""
    key = np.arange(count, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    key = (key ^ (key >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    key = (key ^ (key >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return np.argsort(key ^ (key >> np.uint64(31)))


#: Colouring passes, and sweeps per max-propagation, before
#: :func:`_colour_roots` hands the rest of the graph to Tarjan.  Live-edge
#: graphs need ~4 passes of ~5 sweeps; scrambled ids keep a chain of SCCs
#: or a long cycle to ~log(n) of each.
_MAX_PASSES = 32
_MAX_SWEEPS = 64


def _colour_roots(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each node's SCC root, its largest id, by forward-backward colouring.

    ``colour[v]`` is the largest id that reaches *v*; the node whose colour
    is its own id roots its colour class, and its SCC is the part of the
    class that reaches it back, i.e. whose largest in-class descendant is
    the root.  Resolved SCCs leave the graph and the colouring repeats.  A
    graph that outlasts :data:`_MAX_PASSES` or :data:`_MAX_SWEEPS` is
    finished by :func:`_tarjan_roots`, so the worst case stays linear.
    """
    ids = np.arange(num_nodes)
    root = ids.copy()
    live = np.ones(num_nodes, dtype=bool)
    for _ in range(_MAX_PASSES):
        if not src.size:
            return root
        class_root = _class_roots(ids, src, dst)
        if class_root is None:
            break
        found = (class_root >= 0) & live
        root[found] = class_root[found]
        live &= ~found
        keep = ~(found[src] | found[dst])
        src, dst = src[keep], dst[keep]
    nodes = np.flatnonzero(live)
    local = np.cumsum(live) - 1
    root[nodes] = nodes[_tarjan_roots(nodes.size, local[src], local[dst])]
    return root


def _class_roots(ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """One colouring pass: the colour of each node in its class root's SCC, else -1."""
    colour = _max_reach(ids, src, dst)
    if colour is None:
        return None
    inside = colour[src] == colour[dst]
    back = _max_reach(ids, dst[inside], src[inside])
    if back is None:
        return None
    return np.where(back == colour, colour, -1)


def _max_reach(ids: np.ndarray, tail: np.ndarray, head: np.ndarray) -> np.ndarray | None:
    """``label[v]``: the largest id with a path to *v* along ``tail -> head`` arcs.

    Max-propagation with pointer jumping (whatever reaches ``label[v]``
    reaches *v*); ``None`` if it has not settled after :data:`_MAX_SWEEPS`.
    """
    label = ids
    for _ in range(_MAX_SWEEPS):
        grown = label.copy()
        np.maximum.at(grown, head, label[tail])
        grown = grown[grown]
        if np.array_equal(grown, label):
            return label
        label = grown
    return None


def _tarjan_roots(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each node's SCC root, its largest id, by iterative Tarjan: linear time."""
    order = np.argsort(src, kind="stable")
    heads = dst[order].tolist()
    ptr = _offsets(np.bincount(src, minlength=num_nodes)).tolist()
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    root = list(range(num_nodes))
    stack: list[int] = []
    visited = 0
    for start in range(num_nodes):
        if index[start] >= 0:
            continue
        index[start] = low[start] = visited
        visited += 1
        stack.append(start)
        on_stack[start] = True
        work = [(start, ptr[start])]
        while work:
            v, pos = work[-1]
            end = ptr[v + 1]
            while pos < end:
                w = heads[pos]
                pos += 1
                if index[w] < 0:
                    work[-1] = (v, pos)
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, ptr[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    top = len(stack) - 1
                    while stack[top] != v:
                        top -= 1
                    members = stack[top:]
                    del stack[top:]
                    biggest = max(members)
                    for w in members:
                        on_stack[w] = False
                        root[w] = biggest
    return np.asarray(root, dtype=np.int64)
