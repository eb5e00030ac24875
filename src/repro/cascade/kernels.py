"""Diffusion kernels: the inner loops behind every simulation.

Each diffusion model has exactly one kernel here, a frontier-batched
numpy sweep over the CSR arrays: :func:`run_competitive_cascades` for the
cascade models (IC, WC and any per-edge-probability model) and
:func:`run_competitive_threshold` for LT.  A classical single-group spread
is the one-group case of these kernels: with one group no claim is drawn
and every activated node goes to group 0.  Each step expands *all*
frontier out-edges at once with ``np.repeat``/fancy indexing, reduces
per-target attempt counts and the survival product ``Π(1 - p_e)`` with
segmented reductions (``np.multiply.reduceat`` / ``np.bincount``), and
resolves activation plus PROPORTIONAL / WINNER_TAKE_ALL claims for the
whole step in one vectorized pass.

The cascade kernel runs *many* simulations as one sweep over flat ``row * n
+ node`` keys: a simulation whose cascade dies early drops out of the
frontier while the others keep expanding.  The caller hands it every
row's initiators as ``(row, node, group)`` arrays; a whole payoff job —
several profile cells, each with its own rounds and its own random
stream — is one call.  Its claimed-node state is one packed bitset of
``rows * n`` bits, and per-simulation spreads come from a ``bincount``
over the claimed keys, so a job costs what its cascades touch rather
than ``rows * n``.  A wave that
would expand more attempts than the out-CSR arrays hold int64 values runs
in consecutive chunks of whole streams, so the temporaries of a many-row
sweep stay on the order of the graph's CSR.  The LT kernel runs one
simulation per call.

**Determinism contract.**  Every random variate comes from a caller's
:class:`numpy.random.Generator`, so for a fixed master seed every kernel is
bit-identical to itself across backends and worker counts (the
SeedSequence discipline of :mod:`repro.exec`).  In the cascade sweep
each run of rows draws from its own generator, in key order, and only for
its own keys.  A wave groups its attempts by target with one in-place sort
of packed ``(target - base) << b | position`` keys (:func:`_segments`):
the keys are distinct and equal targets sort by position, so the order is
exactly that of a stable argsort, and a target's survival product
multiplies its attempts in frontier order.  A row's survival products and
results therefore do not depend on which other rows share the sweep.  The
python reference walks in
``tests/reference_kernels.py`` consume randomness in a different order, so
the kernels are *statistically* equivalent to them — per-node activation
and claim probabilities match exactly, only the sample paths differ —
which ``tests/test_kernel_equivalence.py`` checks.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import lookup_bits, packed_zeros, set_bits


class ClaimRule(enum.Enum):
    """How an activated node is attributed to one of the attacking groups."""

    #: Probability ``t_j / Σt_j`` (the paper's rule).
    PROPORTIONAL = "proportional"
    #: The group with the most attempts wins; ties broken uniformly.
    WINNER_TAKE_ALL = "winner_take_all"


# ---------------------------------------------------------------------- #
# CSR frontier expansion (shared by both kernels)
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
    """All out-edges of *frontier* at once: (targets, CSR positions, out-degrees).

    ``targets`` (int64) and ``positions`` are flat, ordered
    frontier-node-major; ``degs`` aligns with *frontier* so callers can
    ``np.repeat`` per-source values onto the edge axis.  An attempt's edge
    id is ``graph.edge_ids[position]``, gathered only by the callers that
    need it, and only for the attempts they keep.
    """
    indptr = graph.out_indptr
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    pos = segment_ranges(starts, degs)
    return graph.out_indices[pos].astype(np.int64), pos, degs


def _segments(
    targets: np.ndarray, base: int, span: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a flat attempt list by target: ``(order, segment starts, uniques)``.

    Every target lies in ``[base, base + span)``.  ``targets[order]`` is
    sorted; segment *s* starts at ``starts[s]`` and belongs to
    ``uniques[s]``.  Equal targets keep their attempt order, so *order* is
    exactly ``np.argsort(targets, kind="stable")``: a segment keeps its
    attempts in frontier order and the survival product over them does not
    depend on the other keys in the sweep.

    One in-place sort of packed keys ``(target - base) << b | position``,
    with *b* the bit length of the attempt count, yields that order: the
    packed keys are distinct, they sort by target first, and equal targets
    by position.  When ``span - 1`` needs more than ``63 - b`` bits, the
    same packed sort runs once per ``63 - b``-bit digit of ``target -
    base``, lowest digit first; each pass keeps the order of equal digits,
    so the passes compose to the stable order (an LSD radix sort).
    """
    size = targets.size
    bits = size.bit_length()
    room = 63 - bits
    low = (1 << bits) - 1
    positions = np.arange(size, dtype=np.int64)
    keys = targets - base
    order: np.ndarray | None = None
    shift = 0
    while shift + room < (span - 1).bit_length():
        digits = keys >> shift
        digits &= (1 << room) - 1
        digits <<= bits
        digits |= positions
        digits.sort()
        step = digits & low
        keys = keys[step]
        order = step if order is None else order[step]
        shift += room
    # The top digit; a single pass packs the keys in place.
    packed = keys >> shift if shift else keys
    packed <<= bits
    packed |= positions
    packed.sort()
    step = packed & low
    if order is None:
        order = step
        packed >>= bits
        keys = packed
    else:
        order = order[step]
        keys = keys[step]
    head = np.empty(size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    uniques = keys[starts]
    uniques += base
    return order, starts, uniques


def _claim_batch(
    weights: np.ndarray, claim_rule: ClaimRule, draws: np.ndarray
) -> np.ndarray:
    """Pick the claiming group of every row of a ``(nodes, groups)`` weight matrix.

    One uniform draw per node (*draws*) resolves the claim: inverse-CDF over
    the per-node weight rows for PROPORTIONAL (group *j* with probability
    ``w_j / Σw``), an index into the tied-maximum set for WINNER_TAKE_ALL
    (the most attempts wins, ties uniform).
    """
    if weights.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if claim_rule is ClaimRule.PROPORTIONAL:
        cum = np.cumsum(weights, axis=1)
        points = draws * cum[:, -1]
        return np.asarray((points[:, None] < cum).argmax(axis=1), dtype=np.int64)
    best = weights.max(axis=1, keepdims=True)
    wins = np.cumsum(weights == best, axis=1)
    nwin = wins[:, -1]
    pick = np.minimum((draws * nwin).astype(np.int64), nwin - 1)
    return np.asarray((wins > pick[:, None]).argmax(axis=1), dtype=np.int64)


def _stream_uniforms(
    keys: np.ndarray, heads: np.ndarray, generators: Sequence[np.random.Generator]
) -> np.ndarray:
    """One uniform per sorted key, each drawn from the stream owning its row.

    Stream *s* owns the keys in ``[heads[s], heads[s + 1])``; it draws as
    many variates as it owns keys, in key order, and nothing when it owns
    none.  A stream's variates therefore depend on its own keys only, not
    on which other streams share the sweep.
    """
    out = np.empty(keys.size)
    bounds = np.searchsorted(keys, heads)
    for s in np.flatnonzero(bounds[1:] > bounds[:-1]).tolist():
        generators[s].random(out=out[bounds[s] : bounds[s + 1]])
    return out


# ---------------------------------------------------------------------- #
# competitive cascade path (IC / WC / heterogeneous-probability models)
# ---------------------------------------------------------------------- #


def run_competitive_cascades(
    graph: DiGraph,
    probs: np.ndarray,
    rows: np.ndarray,
    nodes: np.ndarray,
    groups: np.ndarray,
    num_groups: int,
    streams: Sequence[tuple[int, np.random.Generator]],
    claim_rule: ClaimRule,
    claims: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Many competitive cascades as one frontier sweep.

    Simulation *i* is row *i* of a flat ``i * n + node`` key space: its
    initiators are the *nodes* whose *rows* entry is *i*, with their
    *groups* (each node at most once per row).  A node is activated with
    the combined probability ``1 - Π(1 - p_e)`` over all attempting edges
    and claimed per *claim_rule* (Section 3.2); once claimed it never
    switches groups.  All rows share one frontier and one packed
    claimed-bitset of ``rows * n`` bits.

    *streams* splits the rows into consecutive runs ``(rows, generator)``:
    every activation and claim variate of a run's rows comes from its own
    generator, in key order, so a run's results do not depend on which
    other runs share the sweep.  With one group no claim is drawn.  A
    wave with more attempts than ``out_csr_bytes(graph) // 8`` is expanded
    in chunks of whole runs (:func:`_stream_chunks`), which changes no
    result.  A node or row out of range raises
    :class:`~repro.errors.CascadeError`.

    Returns ``(spreads, steps)``: the ``(rows, num_groups)`` claimed-node
    counts per simulation and group, and each simulation's number of
    diffusion steps (its last step claims nothing; 0 when it had no
    initiators).  When *claims* is given, every wave's claimed flat
    ``(keys, groups)`` is appended to it, the initiators first, so a caller
    can rebuild per-node ownership and activation steps.
    """
    n = graph.num_nodes
    r = num_groups
    # Stream s owns the keys in [heads[s], heads[s + 1]).
    heads = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum([rows for rows, _ in streams], out=heads[1:])
    rounds = int(heads[-1])
    heads *= n
    generators = [generator for _, generator in streams]
    rows = np.asarray(rows, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    bad = (nodes < 0) | (nodes >= n)
    if bad.any():
        raise CascadeError(f"initiator {int(nodes[bad][0])} out of range [0, {n})")
    bad = (rows < 0) | (rows >= rounds)
    if bad.any():
        raise CascadeError(f"initiator row {int(rows[bad][0])} out of range [0, {rounds})")
    keys = rows * n + nodes
    order = np.argsort(keys)
    keys, groups = keys[order], np.asarray(groups, dtype=np.int64)[order]
    claimed = packed_zeros(rounds * n)
    set_bits(claimed, keys)
    rows = keys // n
    spreads = np.bincount(rows * r + groups, minlength=rounds * r)
    last = np.full(rounds, -1, dtype=np.int64)
    last[rows] = 0
    # A wave expands at most about this many attempts at once: its
    # temporaries then stay on the order of the out-CSR arrays.
    limit = max(1, out_csr_bytes(graph) // 8)

    wave = 0
    while keys.size:
        if claims is not None:
            claims.append((keys, groups))
        wave += 1
        parts = [
            _wave(graph, probs, keys[lo:hi], groups[lo:hi], r, heads, generators, claimed,
                  claim_rule)
            for lo, hi in _stream_chunks(graph, keys, heads, limit)
        ]
        keys = np.concatenate([part_keys for part_keys, _ in parts])
        groups = np.concatenate([part_groups for _, part_groups in parts])
        set_bits(claimed, keys)
        rows = keys // n
        spreads += np.bincount(rows * r + groups, minlength=rounds * r)
        last[rows] = wave
    return spreads.reshape(rounds, r), last + 1


def out_csr_bytes(graph: DiGraph) -> int:
    """Bytes of the out-CSR arrays (indptr, indices, edge ids) every sweep reads."""
    return graph.out_indptr.nbytes + graph.out_indices.nbytes + graph.edge_ids.nbytes


def _stream_chunks(
    graph: DiGraph, keys: np.ndarray, heads: np.ndarray, limit: int
) -> list[tuple[int, int]]:
    """Split a sorted frontier at stream boundaries into runs of about *limit* attempts.

    A stream starts a new run when the attempts before it cross a multiple
    of *limit*, so a run exceeds *limit* by at most its last stream.
    Streams never share keys or draws, so the split changes no result.
    """
    nodes = keys % graph.num_nodes
    degs = graph.out_indptr[nodes + 1] - graph.out_indptr[nodes]
    before = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(degs, out=before[1:])
    if before[-1] <= limit:
        return [(0, keys.size)]
    firsts = np.searchsorted(keys, heads[:-1])
    window = before[firsts] // limit
    cuts = firsts[1:][window[1:] != window[:-1]].tolist()
    bounds = [0, *cuts, keys.size]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _wave(
    graph: DiGraph,
    probs: np.ndarray,
    keys: np.ndarray,
    groups: np.ndarray,
    r: int,
    heads: np.ndarray,
    generators: Sequence[np.random.Generator],
    claimed: np.ndarray,
    claim_rule: ClaimRule,
) -> tuple[np.ndarray, np.ndarray]:
    """One diffusion step of sorted frontier *keys*: the ``(keys, groups)`` it claims."""
    n = graph.num_nodes
    offsets = keys // n * n
    targets, pos, degs = _frontier_edges(graph, keys - offsets)
    targets += offsets.repeat(degs)
    live = np.flatnonzero(~lookup_bits(claimed, targets))
    if live.size == 0:
        return live, live
    # Segment the live attempts by target key: survival Π(1 - p_e) via
    # reduceat and, with several groups, the activated targets' per-group
    # attempt counts via bincount over (target, group) slots.  Every
    # target lies in the rows of the first to the last frontier key.
    base = int(offsets[0])
    order, starts, uniq = _segments(targets[live], base, int(offsets[-1]) + n - base)
    # Each sorted attempt's position in the full frontier expansion.
    attempts = live[order]
    survive = np.multiply.reduceat(1.0 - probs[graph.edge_ids[pos[attempts]]], starts)
    draws = _stream_uniforms(uniq, heads, generators)
    activated = np.flatnonzero(draws < 1.0 - survive)
    claimed_keys = uniq[activated]
    if r == 1:
        return claimed_keys, np.zeros(claimed_keys.size, dtype=np.int64)
    sizes = np.diff(starts, append=live.size)[activated]
    attempts = attempts[segment_ranges(starts[activated], sizes)]
    attackers = groups.repeat(degs)[attempts]
    slots = np.arange(claimed_keys.size, dtype=np.int64).repeat(sizes) * r
    counts = np.bincount(slots + attackers, minlength=claimed_keys.size * r)
    claimed_groups = _claim_batch(
        counts.reshape(claimed_keys.size, r).astype(float),
        claim_rule,
        _stream_uniforms(claimed_keys, heads, generators),
    )
    return claimed_keys, claimed_groups


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
    analogue of ``t_j / Σt_j``).  The thresholds are drawn up front; with
    one group no claim is drawn, so the generator advances by ``n``
    variates per diffusion, as in classical LT.  Initiators must be in
    range (:class:`~repro.cascade.competitive.SeedIncidence` checks them).
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
            if r == 1:
                owner[new_nodes] = 0
            else:
                owner[new_nodes] = _claim_batch(
                    pressure[new_nodes], claim_rule, generator.random(new_nodes.size)
                )
            when[new_nodes] = rounds
            frontier = new_nodes
        else:
            frontier = targets
    return owner, rounds, when
