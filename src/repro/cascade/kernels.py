"""Diffusion kernels: the inner loops behind every simulation.

Every diffusion has exactly one implementation here, a frontier-batched
numpy sweep over the CSR arrays.  Each step expands *all* frontier
out-edges at once with ``np.repeat``/fancy indexing, reduces per-target
attempt counts and the survival product ``Π(1 - p_e)`` with segmented
reductions (``np.multiply.reduceat`` / ``np.bincount``), and resolves
activation plus PROPORTIONAL / WINNER_TAKE_ALL claims for the whole step in
one vectorized pass.

The competitive IC/WC kernel (:func:`run_competitive_cascades`) goes one
step further and runs *all* of a job's simulations as one sweep over flat
``round * n + node`` keys, the pattern :func:`sweep_rows` uses for
snapshots: a simulation whose cascade dies early drops out of the frontier
while the others keep expanding.  Its claimed-node state is one packed
bitset of ``rounds * n`` bits, and per-simulation spreads come from a
``bincount`` over the claimed keys, so a job costs what its cascades touch
rather than ``rounds * n``.  The LT and single-group paths run one
simulation per call.

**Determinism contract.**  Every random variate comes from the caller's
:class:`numpy.random.Generator`, so for a fixed master seed every kernel is
bit-identical to itself across backends and worker counts (the
SeedSequence discipline of :mod:`repro.exec`).  The python reference walks
in ``tests/reference_kernels.py`` consume randomness in a different order,
so the kernels are *statistically* equivalent to them — per-node
activation and claim probabilities match exactly, only the sample paths
differ — which ``tests/test_kernel_equivalence.py`` checks.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import histogram
from repro.utils.bitset import (
    is_packed,
    lookup_bits,
    lookup_bits_rows,
    num_words,
    packed_zeros,
    set_bits,
)

# Cached instrument handle (RP004).
_FRONTIER_SIZE = histogram("cascade.frontier_size")


class ClaimRule(enum.Enum):
    """How an activated node is attributed to one of the attacking groups."""

    #: Probability ``t_j / Σt_j`` (the paper's rule).
    PROPORTIONAL = "proportional"
    #: The group with the most attempts wins; ties broken uniformly.
    WINNER_TAKE_ALL = "winner_take_all"


# ---------------------------------------------------------------------- #
# CSR frontier expansion (shared by every kernel)
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


def _segments(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a flat attempt list by target: ``(order, segment starts, uniques)``.

    ``targets[order]`` is sorted (stably, so each segment keeps frontier
    order); segment *s* starts at ``starts[s]`` and belongs to ``uniques[s]``.
    """
    order = np.argsort(targets, kind="stable")
    t_sorted = targets[order]
    head = np.empty(t_sorted.size, dtype=bool)
    head[0] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return order, starts, t_sorted[starts]


def _claim_batch(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> np.ndarray:
    """Pick the claiming group of every row of a ``(nodes, groups)`` weight matrix.

    One uniform draw per node resolves the claim: inverse-CDF over the
    per-node weight rows for PROPORTIONAL (group *j* with probability
    ``w_j / Σw``), an index into the tied-maximum set for WINNER_TAKE_ALL
    (the most attempts wins, ties uniform).
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


def _initiator_keys(
    num_nodes: int, initiators_per_round: Sequence[Sequence[Sequence[int]]], r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``round * n + node`` keys of every initiator, plus their groups."""
    rounds = len(initiators_per_round)
    sizes = np.array(
        [[len(nodes) for nodes in groups] for groups in initiators_per_round],
        dtype=np.int64,
    ).reshape(rounds, r)
    nodes = np.fromiter(
        chain.from_iterable(chain.from_iterable(initiators_per_round)),
        dtype=np.int64,
        count=int(sizes.sum()),
    )
    if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
        bad = nodes[(nodes < 0) | (nodes >= num_nodes)][0]
        raise CascadeError(f"initiator {int(bad)} out of range [0, {num_nodes})")
    rows = np.arange(rounds, dtype=np.int64).repeat(sizes.sum(axis=1))
    groups = np.tile(np.arange(r, dtype=np.int64), rounds).repeat(sizes.ravel())
    return rows * num_nodes + nodes, groups


# ---------------------------------------------------------------------- #
# competitive cascade path (IC / WC / heterogeneous-probability models)
# ---------------------------------------------------------------------- #


def run_competitive_cascades(
    graph: DiGraph,
    probs: np.ndarray,
    initiators_per_round: Sequence[Sequence[Sequence[int]]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
    claims: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All of a job's competitive cascades as one frontier sweep.

    Simulation *i* diffuses from the disjoint initiator sets
    ``initiators_per_round[i]`` (one per group).  A node is activated with
    the combined probability ``1 - Π(1 - p_e)`` over all attempting edges
    and claimed per *claim_rule* (Section 3.2); once claimed it never
    switches groups.  The simulations share one frontier of flat
    ``i * n + node`` keys and one packed claimed-bitset of ``rounds * n``
    bits, and draw their variates from *generator* in key order.

    Returns ``(spreads, steps)``: the ``(rounds, r)`` claimed-node counts
    per simulation and group, and each simulation's number of diffusion
    steps (its last step claims nothing; 0 when it had no initiators).
    When *claims* is given, every wave's claimed ``(keys, groups)`` is
    appended to it, the initiators first, so a caller can rebuild per-node
    ownership and activation steps.
    """
    n = graph.num_nodes
    rounds = len(initiators_per_round)
    r = len(initiators_per_round[0]) if rounds else 0
    keys, groups = _initiator_keys(n, initiators_per_round, r)
    claimed = packed_zeros(rounds * n)
    set_bits(claimed, keys)
    rows = keys // n
    spreads = np.bincount(rows * r + groups, minlength=rounds * r)
    last = np.full(rounds, -1, dtype=np.int64)
    last[rows] = 0

    wave = 0
    while keys.size:
        if claims is not None:
            claims.append((keys, groups))
        wave += 1
        targets, eids, degs = _frontier_edges(graph, keys - rows * n)
        targets += (rows * n).repeat(degs)
        live = ~lookup_bits(claimed, targets)
        targets, eids = targets[live], eids[live]
        if targets.size == 0:
            break
        attackers = groups.repeat(degs)[live]
        # Segment the flat attempt list by target key: per-group attempt
        # counts via bincount over (segment, group) keys, survival
        # Π(1 - p_e) via reduceat.
        order, starts, uniq = _segments(targets)
        survive = np.multiply.reduceat(1.0 - probs[eids[order]], starts)
        slots = np.zeros(targets.size, dtype=np.int64)
        slots[starts[1:]] = 1
        counts = np.bincount(
            slots.cumsum() * r + attackers[order], minlength=uniq.size * r
        ).reshape(uniq.size, r)
        activated = generator.random(uniq.size) < 1.0 - survive
        keys = uniq[activated]
        groups = _claim_batch(counts[activated].astype(float), claim_rule, generator)
        set_bits(claimed, keys)
        rows = keys // n
        spreads += np.bincount(rows * r + groups, minlength=rounds * r)
        last[rows] = wave
        _FRONTIER_SIZE.observe(float(keys.size))
    return spreads.reshape(rounds, r), last + 1


# ---------------------------------------------------------------------- #
# competitive threshold path (LT)
# ---------------------------------------------------------------------- #


def run_competitive_threshold(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive LT diffusion; returns ``(owner, rounds, activation_round)``.

    A node activates once the summed ``1/in_degree`` weight of its active
    in-neighbours reaches its uniform threshold, and is claimed in
    proportion to each group's share of that accumulated weight (the LT
    analogue of ``t_j / Σt_j``).
    """
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner = np.full(n, -1, dtype=np.int64)
    for j, nodes in enumerate(initiators):
        owner[np.asarray(list(nodes), dtype=np.int64)] = j
    frontier = np.flatnonzero(owner >= 0)
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
            touched = sorted_unique(targets)
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


def _seed_frontier(num_nodes: int, seeds: Sequence[int]) -> np.ndarray:
    """The distinct *seeds*, sorted; raises on an out-of-range seed."""
    seed_arr = np.asarray([int(s) for s in seeds], dtype=np.int64)
    bad = (seed_arr < 0) | (seed_arr >= num_nodes)
    if bad.any():
        first = int(seed_arr[bad][0])
        raise CascadeError(f"seed {first} out of range [0, {num_nodes})")
    return sorted_unique(seed_arr)


def simulate_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group cascade from *seeds*; returns the active-node mask."""
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier = _seed_frontier(graph.num_nodes, seeds)
    active[frontier] = True
    while frontier.size:
        targets, eids, _ = _frontier_edges(graph, frontier)
        live = ~active[targets]
        targets, eids = targets[live], eids[live]
        if targets.size == 0:
            break
        order, starts, uniq = _segments(targets)
        survive = np.multiply.reduceat(1.0 - probs[eids[order]], starts)
        hits = generator.random(uniq.size) < 1.0 - survive
        frontier = uniq[hits]
        active[frontier] = True
    return active


def simulate_threshold(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group LT diffusion from *seeds*; returns the active-node mask."""
    n = graph.num_nodes
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)
    frontier = _seed_frontier(n, seeds)
    active[frontier] = True
    while frontier.size:
        targets, _, _ = _frontier_edges(graph, frontier)
        targets = targets[~active[targets]]
        if targets.size == 0:
            break
        np.add.at(pressure, targets, weight_in[targets])
        touched = sorted_unique(targets)
        frontier = touched[pressure[touched] >= thresholds[touched]]
        active[frontier] = True
    return active


# ---------------------------------------------------------------------- #
# reachability sweeps (snapshot oracle / live-edge possible worlds)
# ---------------------------------------------------------------------- #


def _source_nodes(num_nodes: int, sources: Sequence[int]) -> np.ndarray:
    """The distinct *sources*, sorted; raises on an out-of-range node."""
    nodes = np.asarray([int(s) for s in sources], dtype=np.int64)
    bad = (nodes < 0) | (nodes >= num_nodes)
    if bad.any():
        raise GraphError(f"node {int(nodes[bad][0])} out of range [0, {num_nodes})")
    return sorted_unique(nodes)


def reachable_mask(
    graph: DiGraph,
    sources: Sequence[int],
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean array marking nodes reachable from *sources* (mask-filtered).

    *edge_mask* may be a boolean-style array of length *m* or its packed
    bitset equivalent (:mod:`repro.utils.bitset`); both filter identically.
    """
    visited = np.zeros(graph.num_nodes, dtype=bool)
    frontier = _source_nodes(graph.num_nodes, sources)
    visited[frontier] = True
    while frontier.size:
        targets, eids, _ = _frontier_edges(graph, frontier)
        if edge_mask is not None and targets.size:
            targets = targets[lookup_bits(edge_mask, eids)]
        targets = targets[~visited[targets]]
        if targets.size == 0:
            break
        frontier = sorted_unique(targets)
        visited[frontier] = True
    return visited


def reachable_mask_batch(
    graph: DiGraph,
    sources: Sequence[int],
    mask_matrix: np.ndarray,
) -> np.ndarray:
    """Per-snapshot reachability over a stacked ``(snapshots, edges)`` mask.

    Row *s* of the returned ``(snapshots, nodes)`` boolean matrix equals
    ``reachable_mask(graph, sources, mask_matrix[s])`` bit for bit.  One
    frontier sweep runs over flat ``(snapshot, node)`` pairs, so a snapshot
    whose cascade dies early drops out of the frontier while live snapshots
    keep expanding.

    *mask_matrix* is either boolean-style ``(snapshots, edges)`` or packed
    ``(snapshots, words)`` ``uint64`` rows (:mod:`repro.utils.bitset`);
    results are bit-identical between the two representations.
    """
    expected_width = (
        num_words(graph.num_edges) if is_packed(mask_matrix) else graph.num_edges
    )
    if mask_matrix.ndim != 2 or mask_matrix.shape[1] != expected_width:
        raise CascadeError(
            f"mask matrix shape {mask_matrix.shape} does not match "
            f"(snapshots, {expected_width})"
        )
    num_snaps = mask_matrix.shape[0]
    visited = np.zeros((num_snaps, graph.num_nodes), dtype=bool)
    uniq = _source_nodes(graph.num_nodes, sources)
    if not uniq.size or num_snaps == 0:
        return visited
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
