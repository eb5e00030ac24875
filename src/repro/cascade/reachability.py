"""All-source reachability on live-edge snapshots: the reach closure.

``NewGreedy`` (Chen, Wang & Yang, KDD'09) — the first round of MixGreedy —
needs, for each snapshot, the size of the reachable set of *every* node,
and the CELF rounds after it need how many nodes a candidate reaches that
the chosen seeds do not.  Running a BFS from each node is quadratic in the
worst case; instead the live subgraph is condensed into its strongly
connected components and each component's reachable components are
propagated through the condensation DAG, children before parents.  The
result, a :class:`ReachClosure`, answers both questions by gathers.

A stack of snapshots is handled as **one block-diagonal graph**: node *v*
of snapshot *s* becomes node ``s * n + v``, so the live edges of different
snapshots never meet and every step below runs once for the whole stack:

* the live ``(snapshot, edge)`` pairs come from one ``flatnonzero`` over
  the (unpacked) mask matrix, so only live edges are ever materialized as
  integers (:func:`live_edge_pairs`);
* block nodes without a live edge reach only themselves and get no
  component (id -1), so the per-component arrays scale with the live edges
  rather than with ``snapshots * n``;
* SCC labels come from one :func:`strong_components` call over the union
  graph: a numpy trim + forward-backward colouring (below);
* condensation edges are the unique ``(label[src], label[dst])`` keys;
* the union condensation is processed in sink-first Kahn levels, so the
  number of levels is the deepest snapshot's depth, not the sum over
  snapshots.  A level's reach lists are one sorted unique over
  ``(component, reachable component)`` keys gathered from its children's
  lists plus the components themselves, and a component's reach size is
  the summed member count of its list.  Components are numbered in the
  order the DP finishes them, so the lists are appended in id order and
  stay as one int32 CSR.

Masks may be boolean-style or packed bitsets (:mod:`repro.utils.bitset`);
results are identical either way.  Every count is an integer, so the
results are exact whatever the processing order.

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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cascade.kernels import segment_ranges, sorted_unique
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import is_packed, num_words

if TYPE_CHECKING:
    import numpy.typing as npt


def all_reach_sizes(graph: DiGraph, masks: np.ndarray | None = None) -> np.ndarray:
    """Size of the reachable set of every node in every stacked snapshot.

    *masks* is a ``(snapshots, edges-or-words)`` stack — the layout of
    :attr:`~repro.cascade.snapshots.SnapshotOracle.mask_matrix` — and the
    result is the ``(snapshots, n)`` integer array with ``sizes[s, v] =
    |R_s(v)|`` including *v* itself, a reduction over the stack's
    :class:`ReachClosure`.  A 1-D mask, or ``None`` for the whole graph,
    is a one-row stack and returns that row's ``(n,)`` sizes.
    """
    if masks is not None:
        masks = np.asarray(masks)
        if masks.ndim == 2:
            return reach_closure(graph, masks).reach_sizes()
        masks = masks[None, :]
    return reach_closure(graph, masks).reach_sizes()[0]


@dataclass(frozen=True, eq=False)
class ReachClosure:
    """What every node reaches in every snapshot of a stack, by component.

    ``comp[s, v]`` is the component of node *v* in snapshot *s*, or -1 when
    no live edge touches it (it then reaches only itself).  Component ids
    are global over the stack.  Component *c* reaches ``sizes[c]`` nodes
    and the components ``lists[ptr[c] : ptr[c + 1]]``, itself included;
    its nodes are the flat ``s * n + v`` ids
    ``member_nodes[member_ptr[c] : member_ptr[c + 1]]``.  Every array is
    int32 (``ptr`` int64 only past 2**31 list entries).

    A set reached from seeds is closed under reachability, so it is a
    union of components: a node's newly reached count is the summed member
    count of the unreached components in its list, one segment gather per
    ``(candidate, snapshot)``, with no sweep over live edges.
    """

    comp: np.ndarray
    sizes: np.ndarray
    ptr: np.ndarray
    lists: np.ndarray
    member_ptr: np.ndarray
    member_nodes: np.ndarray

    @property
    def nbytes(self) -> int:
        arrays = (self.comp, self.sizes, self.ptr, self.lists, self.member_ptr, self.member_nodes)
        return sum(array.nbytes for array in arrays)

    def reach_sizes(self) -> np.ndarray:
        """``(snapshots, n)`` int32 ``|R_s(v)|``: a node without a component reaches 1."""
        # comp == -1 picks the trailing 1.
        return np.append(self.sizes, np.int32(1))[self.comp]

    def _lists_of(self, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated reach lists of *comps*, and each list's length."""
        lo = self.ptr[comps]
        lengths = self.ptr[comps + 1] - lo
        return self.lists[segment_ranges(lo, lengths)], lengths

    def new_reach_counts(self, reached: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Per entry of *nodes*, the ``(snapshot, node)`` pairs it reaches outside *reached*.

        *reached* is a closed ``(snapshots, n)`` boolean array (as
        :meth:`mark` builds it) and is only read.  An entry already reached
        in a snapshot adds nothing there; duplicates count independently.
        """
        # Candidate-major: entry b's open snapshots, then its lists.
        unreached = ~reached[:, nodes].T
        owner = np.nonzero(unreached)[0]
        comps = self.comp[:, nodes].T[unreached]
        alone = comps < 0
        counts = np.bincount(owner[alone], minlength=nodes.size)
        gathered, lengths = self._lists_of(comps[~alone])
        # A component is reached when its first node is.
        heads = self.member_ptr[gathered]
        fresh = ~reached.reshape(-1)[self.member_nodes[heads]]
        gathered = gathered[fresh]
        owner = owner[~alone].repeat(lengths)[fresh]
        members = self.member_ptr[gathered + 1] - heads[fresh]
        # Float sums of integers below 2**53 are exact.
        counts += np.bincount(owner, weights=members, minlength=nodes.size).astype(np.int64)
        return counts

    def mark(self, reached: np.ndarray, nodes: np.ndarray) -> None:
        """Add to C-contiguous *reached* everything *nodes* reach, in place."""
        flat = reached.reshape(-1)
        snaps, which = np.nonzero(~reached[:, nodes])
        comps = self.comp[snaps, nodes[which]]
        alone = comps < 0
        flat[snaps[alone] * reached.shape[1] + nodes[which[alone]]] = True
        gathered, _ = self._lists_of(comps[~alone])
        heads = self.member_ptr[gathered]
        fresh = ~flat[self.member_nodes[heads]]
        heads = heads[fresh]
        ends = self.member_ptr[gathered[fresh] + 1]
        flat[self.member_nodes[segment_ranges(heads, ends - heads)]] = True


def reach_closure(
    graph: DiGraph, masks: np.ndarray | None = None, bounds: Sequence[int] | None = None
) -> ReachClosure:
    """The :class:`ReachClosure` of a ``(snapshots, edges-or-words)`` mask stack.

    ``None`` is one all-live snapshot.  *bounds* splits the stack into
    runs of whole rows ``[bounds[i], bounds[i + 1])`` (default: one run),
    each one SCC condensation and one level-by-level DP, so a run's
    temporaries scale with the run.  Every run appends its reach lists, in
    place, to one buffer that grows by reallocation.
    """
    snapshots = 1 if masks is None else masks.shape[0]
    n = graph.num_nodes
    if snapshots * n >= 2**31:
        raise CascadeError(f"{snapshots} snapshots of {n} nodes overflow int32 node ids")
    bounds = [0, snapshots] if bounds is None else bounds
    comp = np.empty((snapshots, n), dtype=np.int32)
    buffer = np.empty(max(snapshots * n, 16), dtype=np.int32)
    used = count = 0
    lengths: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    members: list[np.ndarray] = []
    member_nodes: list[np.ndarray] = []
    for lo, hi in zip(bounds, bounds[1:]):
        run = None if masks is None else masks[lo:hi]
        start = used
        labels, nodes, run_members, run_sizes, run_lengths, used = _closure_run(
            graph, run, buffer, used
        )
        buffer[start:used] += count
        rows = comp[lo:hi].reshape(-1)
        rows[:] = -1
        rows[nodes] = labels + count
        nodes += lo * n
        member_nodes.append(nodes[np.argsort(labels)].astype(np.int32))
        members.append(run_members)
        sizes.append(run_sizes)
        lengths.append(run_lengths)
        count += run_lengths.size
    buffer.resize(used, refcheck=False)
    return ReachClosure(
        comp=comp,
        sizes=np.concatenate(sizes),
        ptr=_offsets(np.concatenate(lengths), np.int32 if used < 2**31 else np.int64),
        lists=buffer,
        member_ptr=_offsets(np.concatenate(members), np.int32),
        member_nodes=np.concatenate(member_nodes),
    )


def _closure_run(
    graph: DiGraph, masks: np.ndarray | None, buffer: np.ndarray, used: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One run's SCC condensation and DP, its lists appended to *buffer* at *used*.

    *buffer* grows in place.  Returns each active block node's component
    id (in finish order), the run's flat ids of those nodes, each
    component's member count, reach size and list length, and the
    buffer's new fill.  Ids are local to the run.
    """
    snapshots = 1 if masks is None else masks.shape[0]
    # The DP runs over the block nodes with a live edge, renumbered in order.
    src, dst = live_edge_pairs(graph, masks)
    active = np.zeros(snapshots * graph.num_nodes, dtype=bool)
    active[src] = True
    active[dst] = True
    nodes = np.flatnonzero(active)
    index = np.cumsum(active, dtype=np.int32)
    index -= 1
    del active
    src, dst = index[src], index[dst]
    del index
    num_comps, label = strong_components(nodes.size, src, dst)
    # Ids, counts and CSR pointers the levels hold are int32 (the stack's
    # block nodes fit, see reach_closure); keys combining two ids are int64.
    label = label.astype(np.int32)
    members = np.bincount(label, minlength=num_comps).astype(np.int32)

    # Condensation DAG: unique cross-component edges, parent-major.  The
    # arc arrays are dropped as soon as they are spent: the DP's peak
    # memory is what it holds while its levels run.
    cs, cd = label[src], label[dst]
    del src, dst
    cross = cs != cd
    keys = sorted_unique(cs[cross].astype(np.int64) * num_comps + cd[cross])
    del cs, cd, cross
    parent = (keys // num_comps).astype(np.int32)
    child = (keys % num_comps).astype(np.int32)
    del keys
    # Edges grouped by parent (keys are parent-major already) and by child;
    # the order of a child's parents does not matter, so no stable sort.
    pending = np.bincount(parent, minlength=num_comps).astype(np.int32)  # children not done
    parent_ptr = _offsets(pending, np.int32)
    child_ptr = _offsets(np.bincount(child, minlength=num_comps), np.int32)
    parents_of = parent[np.argsort(child)]

    # Components get new ids in the order they finish, and their reach
    # lists (in new ids) are appended to the buffer in that order;
    # start/length index a list by old id.  Sinks reach only themselves.
    done = np.flatnonzero(pending == 0)
    _room(buffer, used + done.size)
    buffer[used : used + done.size] = np.arange(done.size)
    new_id = np.empty(num_comps, dtype=np.int32)
    new_id[done] = np.arange(done.size)
    new_members = np.empty(num_comps, dtype=np.int32)
    new_members[: done.size] = members[done]
    new_sizes = new_members.copy()
    new_length = np.ones(num_comps, dtype=np.int32)
    start = np.zeros(num_comps, dtype=np.int64)
    start[done] = used + np.arange(done.size)
    length = (pending == 0).astype(np.int32)
    used += done.size
    finished = done.size

    while done.size:
        # Kahn step: parents whose last pending child was just done.
        p_lo, p_hi = child_ptr[done], child_ptr[done + 1]
        ups = parents_of[segment_ranges(p_lo, p_hi - p_lo)]
        np.subtract.at(pending, ups, 1)
        ups = sorted_unique(ups)
        level = ups[pending[ups] == 0]
        if level.size == 0:
            break
        ids = np.arange(finished, finished + level.size)
        span = slice(finished, finished + level.size)
        new_id[level] = ids
        new_members[span] = members[level]
        # Edges out of this level's components; children are all done.
        e_lo, e_hi = parent_ptr[level], parent_ptr[level + 1]
        edge_idx = segment_ranges(e_lo, e_hi - e_lo)
        kids = child[edge_idx]
        kid_len = length[kids]
        gathered = buffer[segment_ranges(start[kids], kid_len)]
        owners = np.repeat(parent[edge_idx], kid_len)
        keys = np.concatenate([owners, level]).astype(np.int64)
        keys *= num_comps
        keys += np.concatenate([gathered, ids])
        pairs = sorted_unique(keys)
        reached = pairs % num_comps
        # ``level`` is sorted and every component owns at least itself, so
        # segment i of ``pairs`` is level[i]'s reach list; the sentinel
        # ``num_comps`` ends the last one.
        bounds = np.searchsorted(pairs, np.append(level.astype(np.int64), num_comps) * num_comps)
        heads = bounds[:-1]
        new_sizes[span] = np.add.reduceat(new_members[reached], heads)
        if used + pairs.size > buffer.size:
            _room(buffer, used + pairs.size)
        buffer[used : used + pairs.size] = reached
        start[level] = used + heads
        length[level] = new_length[span] = bounds[1:] - heads
        used += pairs.size
        finished += level.size
        done = level
    return new_id[label], nodes, new_members, new_sizes, new_length, used


def _room(buffer: np.ndarray, size: int) -> None:
    """Grow *buffer* in place to at least *size* entries (doubling).

    ``resize`` reallocates the array's own memory, so no view of it may be
    alive.
    """
    if size > buffer.size:
        buffer.resize(max(2 * buffer.size, size), refcheck=False)


def live_edge_pairs(
    graph: DiGraph, masks: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal ``(src, dst)`` node ids of every live ``(snapshot, edge)``.

    *masks* is a ``(snapshots, edges)`` boolean-style or ``(snapshots,
    words)`` packed stack, or ``None`` for one all-live snapshot.  Node *v*
    of snapshot *s* is ``s * n + v``, so the live edges of different
    snapshots never meet.  Pairs come out in snapshot-major CSR order:
    ``src`` is non-decreasing.
    """
    n, m = graph.num_nodes, graph.num_edges
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_indptr))
    dst = np.asarray(graph.out_indices, dtype=np.int64)
    if masks is None:
        return src, dst
    width = num_words(m) if is_packed(masks) else m
    if masks.ndim != 2 or masks.shape[1] != width:
        raise CascadeError(
            f"mask stack shape {masks.shape} does not match (snapshots, {width})"
        )
    # Flat ``s * m + p`` indices of the live edges, with columns permuted
    # from edge-id order to CSR position order.
    flat = np.flatnonzero(_unpacked(masks, m)[:, graph.edge_ids])
    snap = flat // m
    flat -= snap * m
    snap *= n
    live_src, live_dst = src[flat], dst[flat]
    live_src += snap
    live_dst += snap
    return live_src, live_dst


def _unpacked(masks: np.ndarray, num_edges: int) -> np.ndarray:
    """A mask stack as ``(snapshots, edges)`` booleans."""
    if not is_packed(masks):
        return np.asarray(masks, dtype=bool)
    bits = np.unpackbits(
        np.ascontiguousarray(masks).view(np.uint8),
        axis=1,
        count=num_edges,
        bitorder="little",
    )
    return bits.view(bool)


def _offsets(counts: np.ndarray, dtype: npt.DTypeLike = np.int64) -> np.ndarray:
    """CSR row pointers of per-row *counts*."""
    ptr = np.zeros(counts.size + 1, dtype=dtype)
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
