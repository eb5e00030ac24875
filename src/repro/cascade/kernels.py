"""Diffusion kernels: the per-round inner loops behind every simulation.

Two interchangeable implementations of the same diffusion semantics live
here, selected by the ``kernel`` argument (or the ``REPRO_KERNEL``
environment variable):

``python``
    The reference implementation: explicit frontier walks, one node and one
    edge at a time.  Easy to audit against Section 3.2 of the paper and the
    default everywhere.

``numpy``
    A frontier-batched vectorization of the same process.  Each round
    expands *all* frontier out-edges at once with ``np.repeat``/fancy
    indexing over the CSR arrays, reduces per-target attempt counts and the
    survival product ``Π(1 - p_e)`` with segmented reductions
    (``np.multiply.reduceat`` / ``np.bincount``), and resolves activation
    plus PROPORTIONAL / WINNER_TAKE_ALL claims for the whole round in one
    vectorized pass.  The LT pressure path and the reachability BFS get
    the same treatment (a mask-filtered CSR frontier sweep).

The snapshot oracle's incremental sweeps (:func:`sweep_rows`) have only
the batched form: they draw no randomness, so there is nothing for a
second implementation to be equivalent to.

**Determinism contract.**  Both kernels draw every random variate from the
caller's :class:`numpy.random.Generator`, so for a fixed master seed each
kernel is bit-identical to itself across backends and worker counts (the
SeedSequence discipline of :mod:`repro.exec`).  The kernels consume
randomness in different orders, however, so they are *not* bit-identical to
each other — they are statistically equivalent: per-node activation and
claim probabilities match exactly, only the sample paths differ.  The
equivalence suite (``tests/test_kernel_equivalence.py``) checks both halves
of this contract.

Per-node Python diffusion loops outside this module are flagged by
reprolint rule RP007.
"""

from __future__ import annotations

import enum
import os
from collections.abc import Sequence

import numpy as np

from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import histogram, counter
from repro.utils.bitset import is_packed, lookup_bits, lookup_bits_rows, num_words

#: Environment variable selecting the process-wide default kernel.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Known kernel names, in documentation order.
KERNELS = ("python", "numpy")

# Cached instrument handles (RP004): one counter pair per kernel so metrics
# record which implementation actually ran, exec.*-style.
_SIMULATIONS = {name: counter(f"kernel.{name}.simulations") for name in KERNELS}
_SWEEPS = {name: counter(f"kernel.{name}.sweeps") for name in KERNELS}
_FRONTIER_SIZE = histogram("cascade.frontier_size")


def resolve_kernel(kernel: str | None = None) -> str:
    """Resolve *kernel* to a concrete kernel name.

    ``None`` falls back to ``REPRO_KERNEL`` (default ``python``); anything
    outside :data:`KERNELS` raises :class:`CascadeError`.
    """
    resolved = kernel or os.environ.get(KERNEL_ENV_VAR, "").strip() or "python"
    if resolved not in KERNELS:
        raise CascadeError(
            f"unknown cascade kernel {resolved!r}; known: {sorted(KERNELS)}"
        )
    return resolved


class ClaimRule(enum.Enum):
    """How an activated node is attributed to one of the attacking groups."""

    #: Probability ``t_j / Σt_j`` (the paper's rule).
    PROPORTIONAL = "proportional"
    #: The group with the most attempts wins; ties broken uniformly.
    WINNER_TAKE_ALL = "winner_take_all"


def claim_group(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> int:
    """Pick the claiming group for one node given per-group attempt weights."""
    total = weights.sum()
    if claim_rule is ClaimRule.PROPORTIONAL:
        return int(generator.choice(weights.shape[0], p=weights / total))
    best = weights.max()
    winners = np.flatnonzero(weights == best)
    return int(winners[generator.integers(0, winners.shape[0])])


# ---------------------------------------------------------------------- #
# CSR frontier expansion (shared by every numpy kernel)
# ---------------------------------------------------------------------- #


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D integer array, by sort and compare.

    Same result as ``np.unique``, whose hash-based default in numpy 2 is
    far slower on the large int64 key arrays of the reachability sweeps
    (about 960 ms against 20 ms for 10^6 random keys).
    """
    values = np.sort(values)
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def segment_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for every ``(s, l)`` pair."""
    # Flat position i falls in segment j when cumsum(lengths)[j-1] <= i <
    # cumsum(lengths)[j]; shift it by starts[j] minus that segment's head.
    return np.arange(int(lengths.sum()), dtype=np.int64) + (
        starts + lengths - lengths.cumsum()
    ).repeat(lengths)


def _frontier_edges(
    graph: DiGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All out-edges of *frontier* at once: (targets, edge ids, out-degrees).

    ``targets``/``eids`` are flat, ordered frontier-node-major; ``degs``
    aligns with *frontier* so callers can ``np.repeat`` per-source values
    onto the edge axis.
    """
    indptr = graph.out_indptr
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, degs
    pos = segment_ranges(starts, degs)
    targets = graph.out_indices[pos].astype(np.int64)
    eids = graph.edge_ids[pos]
    return targets, eids, degs


def _claim_batch(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> np.ndarray:
    """Vectorized :func:`claim_group` over a ``(nodes, groups)`` weight matrix.

    One uniform draw per node resolves the claim: inverse-CDF over the
    per-node weight rows for PROPORTIONAL, an index into the tied-maximum
    set for WINNER_TAKE_ALL — the same distributions as the scalar path.
    """
    m = weights.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    draws = generator.random(m)
    if claim_rule is ClaimRule.PROPORTIONAL:
        cum = np.cumsum(weights, axis=1)
        points = draws * cum[:, -1]
        return np.asarray((points[:, None] < cum).argmax(axis=1), dtype=np.int64)
    best = weights.max(axis=1, keepdims=True)
    wins = np.cumsum(weights == best, axis=1)
    nwin = wins[:, -1]
    pick = np.minimum((draws * nwin).astype(np.int64), nwin - 1)
    return np.asarray((wins > pick[:, None]).argmax(axis=1), dtype=np.int64)


def _initial_owner(
    num_nodes: int, initiators: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Ownership array seeded from disjoint initiator sets, plus the frontier."""
    owner = np.full(num_nodes, -1, dtype=np.int64)
    for j, nodes in enumerate(initiators):
        owner[np.asarray(list(nodes), dtype=np.int64)] = j
    return owner, np.flatnonzero(owner >= 0)


# ---------------------------------------------------------------------- #
# competitive cascade path (IC / WC / heterogeneous-probability models)
# ---------------------------------------------------------------------- #


def run_competitive_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
    kernel: str | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive cascade; returns ``(owner, rounds, activation_round)``.

    Nodes are activated with the combined probability ``1 - Π(1 - p_e)``
    over all attempting edges and claimed per *claim_rule* (Section 3.2).
    """
    resolved = resolve_kernel(kernel)
    _SIMULATIONS[resolved].inc()
    if resolved == "numpy":
        return _competitive_cascade_numpy(
            graph, probs, initiators, claim_rule, generator
        )
    return _competitive_cascade_python(graph, probs, initiators, claim_rule, generator)


def _competitive_cascade_python(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    r = len(initiators)
    owner = np.full(graph.num_nodes, -1, dtype=np.int64)
    when = np.zeros(graph.num_nodes, dtype=np.int64)
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        # attempts[v] = (per-group counts, running product of (1 - p)).
        attempts: dict[int, tuple[np.ndarray, float]] = {}
        for j in range(r):
            for u in frontiers[j]:
                nbrs = graph.out_neighbors(u)
                if nbrs.size == 0:
                    continue
                eids = graph.out_edge_ids(u)
                for v, eid in zip(nbrs, eids):
                    if owner[v] >= 0:
                        continue
                    counts, survive = attempts.get(
                        int(v), (np.zeros(r, dtype=np.int64), 1.0)
                    )
                    counts[j] += 1
                    attempts[int(v)] = (counts, survive * (1.0 - probs[eid]))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        for v, (counts, survive) in attempts.items():
            # Combined activation probability: 1 - Π(1 - p_e) over all
            # attempting edges; equals 1 - (1 - p)^T for uniform p,
            # the paper's Section 3.2 formula.
            if generator.random() < 1.0 - survive:
                winner = claim_group(counts.astype(float), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
        _FRONTIER_SIZE.observe(sum(len(f) for f in frontiers))
    return owner, rounds, when


def _competitive_cascade_numpy(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    r = len(initiators)
    owner, frontier = _initial_owner(graph.num_nodes, initiators)
    when = np.zeros(graph.num_nodes, dtype=np.int64)

    rounds = 0
    while frontier.size:
        rounds += 1
        targets, eids, degs = _frontier_edges(graph, frontier)
        groups = np.repeat(owner[frontier], degs)
        live = owner[targets] < 0
        targets, eids, groups = targets[live], eids[live], groups[live]
        if targets.size:
            # Segment the flat edge list by target node: one segment per
            # unique target, per-group attempt counts via bincount over
            # (segment, group) keys, survival Π(1 - p_e) via reduceat.
            order = np.argsort(targets, kind="stable")
            t_sorted = targets[order]
            seg_head = np.r_[True, t_sorted[1:] != t_sorted[:-1]]
            seg_starts = np.flatnonzero(seg_head)
            uniq = t_sorted[seg_starts]
            survive = np.multiply.reduceat(1.0 - probs[eids[order]], seg_starts)
            slots = np.cumsum(seg_head) - 1
            counts = np.bincount(
                slots * r + groups[order], minlength=uniq.size * r
            ).reshape(uniq.size, r)
            activated = generator.random(uniq.size) < 1.0 - survive
            new_nodes = uniq[activated]
            winners = _claim_batch(
                counts[activated].astype(float), claim_rule, generator
            )
            owner[new_nodes] = winners
            when[new_nodes] = rounds
            frontier = new_nodes
        else:
            frontier = targets
        _FRONTIER_SIZE.observe(float(frontier.size))
    return owner, rounds, when


# ---------------------------------------------------------------------- #
# competitive threshold path (LT)
# ---------------------------------------------------------------------- #


def run_competitive_threshold(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
    kernel: str | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive LT diffusion; returns ``(owner, rounds, activation_round)``.

    A node activates once the summed ``1/in_degree`` weight of its active
    in-neighbours reaches its uniform threshold, and is claimed in
    proportion to each group's share of that accumulated weight (the LT
    analogue of ``t_j / Σt_j``).
    """
    resolved = resolve_kernel(kernel)
    _SIMULATIONS[resolved].inc()
    if resolved == "numpy":
        return _competitive_threshold_numpy(graph, initiators, claim_rule, generator)
    return _competitive_threshold_python(graph, initiators, claim_rule, generator)


def _competitive_threshold_python(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner = np.full(n, -1, dtype=np.int64)
    when = np.zeros(n, dtype=np.int64)
    pressure = np.zeros((n, r))
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        touched: set[int] = set()
        for j in range(r):
            for u in frontiers[j]:
                for v in graph.out_neighbors(u):
                    if owner[v] < 0:
                        pressure[v, j] += weight_in[v]
                        touched.add(int(v))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        # Sorted so the claim_group draw order — and thus the whole
        # trajectory — is deterministic by construction, not by the accident
        # of CPython's int-set iteration order (RP011).
        for v in sorted(touched):
            total = pressure[v].sum()
            if total >= thresholds[v]:
                # Claim in proportion to each group's share of the
                # accumulated weight (the LT analogue of t_j / Σt_j).
                winner = claim_group(pressure[v].copy(), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
        _FRONTIER_SIZE.observe(sum(len(f) for f in frontiers))
    return owner, rounds, when


def _competitive_threshold_numpy(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner, frontier = _initial_owner(n, initiators)
    when = np.zeros(n, dtype=np.int64)
    pressure = np.zeros((n, r))

    rounds = 0
    while frontier.size:
        rounds += 1
        targets, _, degs = _frontier_edges(graph, frontier)
        groups = np.repeat(owner[frontier], degs)
        live = owner[targets] < 0
        targets, groups = targets[live], groups[live]
        if targets.size:
            np.add.at(pressure, (targets, groups), weight_in[targets])
            touched = np.unique(targets)
            crossed = pressure[touched].sum(axis=1) >= thresholds[touched]
            new_nodes = touched[crossed]
            winners = _claim_batch(pressure[new_nodes], claim_rule, generator)
            owner[new_nodes] = winners
            when[new_nodes] = rounds
            frontier = new_nodes
        else:
            frontier = targets
        _FRONTIER_SIZE.observe(float(frontier.size))
    return owner, rounds, when


# ---------------------------------------------------------------------- #
# single-group simulation (classical spread)
# ---------------------------------------------------------------------- #


def simulate_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
    kernel: str | None = None,
) -> np.ndarray:
    """One single-group cascade from *seeds*; returns the active-node mask."""
    resolved = resolve_kernel(kernel)
    _SIMULATIONS[resolved].inc()
    if resolved == "numpy":
        return _simulate_cascade_numpy(graph, probs, seeds, generator)
    return _simulate_cascade_python(graph, probs, seeds, generator)


def _checked_seed_array(num_nodes: int, seeds: Sequence[int]) -> np.ndarray:
    seed_arr = np.asarray([int(s) for s in seeds], dtype=np.int64)
    bad = (seed_arr < 0) | (seed_arr >= num_nodes)
    if bad.any():
        first = int(seed_arr[bad][0])
        raise CascadeError(f"seed {first} out of range [0, {num_nodes})")
    return seed_arr


def _simulate_cascade_python(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < graph.num_nodes:
            raise CascadeError(f"seed {s} out of range [0, {graph.num_nodes})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            nbrs = graph.out_neighbors(u)
            if nbrs.size == 0:
                continue
            eids = graph.out_edge_ids(u)
            hits = generator.random(nbrs.size) < probs[eids]
            for v in nbrs[hits]:
                if not active[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def _simulate_cascade_numpy(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.unique(_checked_seed_array(graph.num_nodes, seeds))
    active[frontier] = True
    while frontier.size:
        targets, eids, _ = _frontier_edges(graph, frontier)
        live = ~active[targets]
        targets, eids = targets[live], eids[live]
        if targets.size == 0:
            break
        order = np.argsort(targets, kind="stable")
        t_sorted = targets[order]
        seg_head = np.r_[True, t_sorted[1:] != t_sorted[:-1]]
        seg_starts = np.flatnonzero(seg_head)
        uniq = t_sorted[seg_starts]
        survive = np.multiply.reduceat(1.0 - probs[eids[order]], seg_starts)
        hits = generator.random(uniq.size) < 1.0 - survive
        frontier = uniq[hits]
        active[frontier] = True
    return active


def simulate_threshold(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
    kernel: str | None = None,
) -> np.ndarray:
    """One single-group LT diffusion from *seeds*; returns the active-node mask."""
    resolved = resolve_kernel(kernel)
    _SIMULATIONS[resolved].inc()
    if resolved == "numpy":
        return _simulate_threshold_numpy(graph, seeds, generator)
    return _simulate_threshold_python(graph, seeds, generator)


def _simulate_threshold_python(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    n = graph.num_nodes
    thresholds = generator.random(n)
    in_deg = graph.in_degrees().astype(float)
    weight_in = 1.0 / np.maximum(in_deg, 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)  # summed weight of active in-neighbours
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < n:
            raise CascadeError(f"seed {s} out of range [0, {n})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            for v in graph.out_neighbors(u):
                if active[v]:
                    continue
                pressure[v] += weight_in[v]
                if pressure[v] >= thresholds[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def _simulate_threshold_numpy(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    n = graph.num_nodes
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)
    frontier = np.unique(_checked_seed_array(n, seeds))
    active[frontier] = True
    while frontier.size:
        targets, _, _ = _frontier_edges(graph, frontier)
        targets = targets[~active[targets]]
        if targets.size == 0:
            break
        np.add.at(pressure, targets, weight_in[targets])
        touched = np.unique(targets)
        frontier = touched[pressure[touched] >= thresholds[touched]]
        active[frontier] = True
    return active


# ---------------------------------------------------------------------- #
# reachability sweeps (snapshot oracle / live-edge possible worlds)
# ---------------------------------------------------------------------- #


def _sweep_numpy(
    graph: DiGraph,
    edge_mask: np.ndarray | None,
    frontier: np.ndarray,
    visited: np.ndarray,
) -> None:
    """Mask-filtered CSR frontier sweep; marks everything reachable in *visited*.

    *edge_mask* may be a boolean-style array of length *m* or its packed
    bitset equivalent (:mod:`repro.utils.bitset`); both filter identically.
    """
    while frontier.size:
        targets, eids, _ = _frontier_edges(graph, frontier)
        if edge_mask is not None and targets.size:
            keep = lookup_bits(edge_mask, eids)
            targets = targets[keep]
        if targets.size:
            targets = targets[~visited[targets]]
        if targets.size == 0:
            return
        frontier = np.unique(targets)
        visited[frontier] = True


def reachable_mask(
    graph: DiGraph,
    sources: Sequence[int],
    edge_mask: np.ndarray | None = None,
    kernel: str | None = None,
) -> np.ndarray:
    """Boolean array marking nodes reachable from *sources* (mask-filtered)."""
    resolved = resolve_kernel(kernel)
    _SWEEPS[resolved].inc()
    if resolved == "python":
        return graph.reachable_from(sources, edge_mask)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in sources:
        node = int(s)
        if not 0 <= node < graph.num_nodes:
            raise GraphError(f"node {node} out of range [0, {graph.num_nodes})")
        if not visited[node]:
            visited[node] = True
            frontier.append(node)
    _sweep_numpy(graph, edge_mask, np.asarray(frontier, dtype=np.int64), visited)
    return visited


def reachable_mask_batch(
    graph: DiGraph,
    sources: Sequence[int],
    mask_matrix: np.ndarray,
    kernel: str | None = None,
) -> np.ndarray:
    """Per-snapshot reachability over a stacked ``(snapshots, edges)`` mask.

    Row *s* of the returned ``(snapshots, nodes)`` boolean matrix equals
    ``reachable_mask(graph, sources, mask_matrix[s])`` bit for bit.  The
    python kernel is that per-mask loop verbatim; the numpy kernel runs one
    frontier sweep over flat ``(snapshot, node)`` pairs, so a snapshot whose
    cascade dies early drops out of the frontier while live snapshots keep
    expanding — the batched analogue of the per-mask early exit.

    *mask_matrix* is either boolean-style ``(snapshots, edges)`` or packed
    ``(snapshots, words)`` ``uint64`` rows (:mod:`repro.utils.bitset`);
    results are bit-identical between the two representations.
    """
    resolved = resolve_kernel(kernel)
    expected_width = (
        num_words(graph.num_edges) if is_packed(mask_matrix) else graph.num_edges
    )
    if mask_matrix.ndim != 2 or mask_matrix.shape[1] != expected_width:
        raise CascadeError(
            f"mask matrix shape {mask_matrix.shape} does not match "
            f"(snapshots, {expected_width})"
        )
    num_snaps = mask_matrix.shape[0]
    _SWEEPS[resolved].inc(num_snaps)
    if resolved == "python":
        rows = [graph.reachable_from(sources, mask_matrix[s]) for s in range(num_snaps)]
        if not rows:
            return np.zeros((0, graph.num_nodes), dtype=bool)
        return np.stack(rows)
    visited = np.zeros((num_snaps, graph.num_nodes), dtype=bool)
    starts: list[int] = []
    for s in sources:
        node = int(s)
        if not 0 <= node < graph.num_nodes:
            raise GraphError(f"node {node} out of range [0, {graph.num_nodes})")
        starts.append(node)
    if not starts or num_snaps == 0:
        return visited
    uniq = np.unique(np.asarray(starts, dtype=np.int64))
    visited[:, uniq] = True
    sweep_rows(
        graph,
        mask_matrix,
        np.repeat(np.arange(num_snaps, dtype=np.int64), uniq.size),
        np.tile(uniq, num_snaps),
        visited,
    )
    return visited


def sweep_rows(
    graph: DiGraph,
    mask_matrix: np.ndarray,
    snaps: np.ndarray,
    nodes: np.ndarray,
    visited: np.ndarray,
    marked: list[np.ndarray] | None = None,
) -> int:
    """Mark in *visited* everything the ``(snapshot, node)`` pairs reach.

    One frontier sweep over flat pairs: pair ``(s, v)`` expands the edges
    of *v* that are live in row *s* of the stacked *mask_matrix* (boolean
    or packed).  The frontier pairs must already be marked in the
    ``(snapshots, nodes)`` boolean *visited*; the sweep stops at marked
    pairs, since in a live-edge world everything reachable from a reached
    node is itself reached.  Returns how many pairs it newly marked; when
    *marked* is given, the flat ``snapshot * nodes + node`` keys of those
    pairs are appended to it wave by wave, so a caller can undo the marks
    even if the sweep is interrupted.
    """
    n = graph.num_nodes
    count = 0
    while nodes.size:
        targets, eids, degs = _frontier_edges(graph, nodes)
        if targets.size == 0:
            break
        rows = snaps.repeat(degs)
        live = lookup_bits_rows(mask_matrix, rows, eids)
        targets, rows = targets[live], rows[live]
        fresh = ~visited[rows, targets]
        targets, rows = targets[fresh], rows[fresh]
        if targets.size == 0:
            break
        keys = sorted_unique(rows * n + targets)
        snaps, nodes = keys // n, keys % n
        visited[snaps, nodes] = True
        if marked is not None:
            marked.append(keys)
        count += keys.size
    return count
