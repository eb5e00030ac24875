"""Live-edge snapshots and the spread oracle built on them.

Under any triggering model (IC, WC, LT), the expected influence spread of a
seed set equals its expected reachability over random live-edge subgraphs
(Kempe et al.'s possible-world equivalence).  MixGreedy — the ``NewGreedy``
improvement of Chen, Wang & Yang (KDD'09) combined with CELF — exploits this
by sampling the subgraphs once and evaluating every candidate seed against
the same sample, which both slashes simulation cost and removes evaluation
noise between candidates.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from functools import cached_property
from typing import TYPE_CHECKING, overload

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import live_csr, new_reach_counts, reach_rows, sweep_live
from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import is_packed, num_words, pack_bits, unpack_bits
from repro.utils.rng import RandomSource, as_rng
from repro.utils.shards import DEFAULT_NUM_SHARDS, shard_bounds

if TYPE_CHECKING:
    from repro.cache.memo import Memo


def sample_snapshots(
    graph: DiGraph,
    model: CascadeModel,
    count: int,
    rng: RandomSource = None,
    packed: bool = False,
) -> list[np.ndarray]:
    """Draw *count* independent live-edge masks from *model* on *graph*.

    With ``packed=True`` each mask is returned as a packed bitset
    (``uint64`` words, 8x smaller) holding exactly the same bits — the
    generator is consumed identically, so the packed sample is the packed
    form of the boolean sample for the same *rng*.
    """
    if count <= 0:
        raise CascadeError(f"snapshot count must be positive, got {count}")
    generator = as_rng(rng)
    masks = [model.sample_live_mask(graph, generator) for _ in range(count)]
    if packed:
        return [pack_bits(mask) for mask in masks]
    return masks


# --------------------------------------------------------------------------- #
# delta-stable sampling
# --------------------------------------------------------------------------- #

# splitmix64 finalizer constants (Steele et al.); the avalanche mixer behind
# the per-edge hash draws of stable sampling.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64 = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = x ^ (x >> _U64(30))
    x = x * _MIX_1
    x = x ^ (x >> _U64(27))
    x = x * _MIX_2
    return x ^ (x >> _U64(31))


def stable_edge_draws(
    seed: int, index: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Uniform [0, 1) draw per edge, a pure function of ``(seed, index, u, v)``.

    Unlike a sequential generator stream, the draw of edge ``(u, v)`` in
    snapshot *index* does not depend on which other edges exist — so after
    an edge delta, every surviving edge keeps exactly the draw it had, and
    a resampled shard is bit-identical to the same shard sampled cold on
    the patched graph.  The 53 high bits of a splitmix64-mixed hash give
    the float, matching the precision of ``Generator.random``.
    """
    with np.errstate(over="ignore"):
        base = _mix64(np.asarray(_U64(seed % (1 << 64)) + _GOLDEN * _U64(index)))
        h = _mix64(src.astype(np.uint64) * _GOLDEN ^ base)
        h = _mix64(h ^ dst.astype(np.uint64) * _MIX_2)
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


def _probs_digest(probs_slice: np.ndarray) -> int:
    digest = hashlib.blake2b(
        np.ascontiguousarray(probs_slice).tobytes(), digest_size=8
    )
    return int.from_bytes(digest.digest(), "big")


def sample_stable_snapshots(
    graph: DiGraph,
    model: CascadeModel,
    count: int,
    seed: int,
    start: int = 0,
    packed: bool = False,
    num_shards: int = DEFAULT_NUM_SHARDS,
    memo: "Memo | None" = None,
) -> list[np.ndarray]:
    """Draw snapshots ``start .. start + count`` from per-edge hash draws.

    The delta-stable counterpart of :func:`sample_snapshots`: mask bits are
    computed shard by shard (structural node-range shards, see
    :mod:`repro.utils.shards`) from :func:`stable_edge_draws`, so each
    shard's slice is a pure function of ``(shard edges, edge probabilities,
    seed, snapshot index)``.  Two consequences:

    * sampling is *splittable* — any snapshot range of any shard can be
      produced independently (``start`` offsets shard jobs without
      replaying earlier snapshots);
    * sampling is *delta-stable* — after an edge delta, shards the delta
      left untouched produce byte-identical slices, which the optional
      *memo* (keyed on shard structural hash + probability digest + seed +
      index) turns into the warm-pool splice: clean shards are served from
      cache, dirty shards are recomputed, and the resulting masks are
      bit-identical to a cold pool on the patched graph.

    Requires an independent-per-edge model (IC, WC): models that override
    ``sample_live_mask`` with coupled draws (LT's triggering sets) are
    rejected — their snapshots cannot be decomposed per edge.
    """
    if count <= 0:
        raise CascadeError(f"snapshot count must be positive, got {count}")
    if start < 0:
        raise CascadeError(f"snapshot start must be non-negative, got {start}")
    if type(model).sample_live_mask is not CascadeModel.sample_live_mask:
        raise CascadeError(
            f"stable sampling requires independent per-edge draws; "
            f"{type(model).__name__} overrides sample_live_mask"
        )

    # Local import: repro.cache imports repro.utils, never repro.cascade,
    # so the runtime edge cascade -> cache is acyclic (pools does the same).
    from repro.cache.keys import shard_hashes

    n, m = graph.num_nodes, graph.num_edges
    probs = model.edge_probabilities(graph)
    bounds = shard_bounds(n, num_shards)
    indptr, indices, eids = graph.out_indptr, graph.out_indices, graph.edge_ids
    hashes = shard_hashes(graph, num_shards) if memo is not None else None

    # Per-shard CSR slices: source ids, destinations, stable edge ids, and
    # the probability slice (edge-id indexed probabilities gathered to CSR
    # positions).  Built once and shared by every snapshot.
    shards: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]] = []
    for s in range(num_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        p0, p1 = int(indptr[lo]), int(indptr[hi])
        if p0 == p1:
            shards.append(
                (
                    np.zeros(0, np.int64),
                    np.zeros(0, np.int64),
                    np.zeros(0, np.int64),
                    np.zeros(0, np.float64),
                    s,
                )
            )
            continue
        degrees = np.asarray(indptr[lo : hi + 1] - indptr[lo])
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(degrees))
        dst = np.asarray(indices[p0:p1], dtype=np.int64)
        shard_eids = np.asarray(eids[p0:p1])
        shards.append((src, dst, shard_eids, probs[shard_eids], s))

    digests = [_probs_digest(shard[3]) for shard in shards] if memo is not None else None

    masks: list[np.ndarray] = []
    for index in range(start, start + count):
        mask = np.zeros(m, dtype=bool)
        for src, dst, shard_eids, shard_probs, s in shards:
            if shard_eids.size == 0:
                continue
            bits: np.ndarray | None = None
            key: tuple[object, ...] | None = None
            if memo is not None and hashes is not None and digests is not None:
                key = ("stable", hashes[s], digests[s], int(seed), index)
                stored = memo.get(key)
                if stored is not None:
                    bits = unpack_bits(stored[0], shard_eids.size)
            if bits is None:
                bits = stable_edge_draws(seed, index, src, dst) < shard_probs
                if memo is not None and key is not None:
                    packed_bits = pack_bits(bits)
                    memo.put(key, (packed_bits,), nbytes=packed_bits.nbytes)
            mask[shard_eids] = bits
        masks.append(pack_bits(mask) if packed else mask)
    return masks


def stack_masks(masks: Sequence[np.ndarray], num_edges: int) -> np.ndarray:
    """Stack per-snapshot masks into one ``(snapshots, edges-or-words)`` matrix.

    A fully packed sample stays packed (``uint64`` rows); mixed samples are
    normalized to boolean rows.  Every mask must match *num_edges*.
    """
    packed_words = num_words(num_edges)
    arrays = [np.asarray(mask) for mask in masks]
    for mask in arrays:
        expected = (packed_words,) if is_packed(mask) else (num_edges,)
        if mask.shape != expected:
            raise CascadeError(
                f"mask shape {mask.shape} does not match edge count {num_edges}"
            )
    if all(is_packed(mask) for mask in arrays):
        return np.stack(arrays)
    return np.stack(
        [
            unpack_bits(mask, num_edges) if is_packed(mask) else np.asarray(mask, dtype=bool)
            for mask in arrays
        ]
    )


class SnapshotOracle:
    """Estimates spreads by reachability over a fixed set of live-edge masks.

    The oracle supports the incremental pattern greedy algorithms need:
    :meth:`reach` returns the reached sets of the current seed set as one
    ``(snapshots, n)`` boolean array (row *s* is snapshot *s*),
    :meth:`extend_reach` adds a seed to that array in place, and
    :meth:`marginal_gain` counts only *newly* reachable nodes, stopping at
    already-reached ones (in a live-edge world, everything reachable from a
    reached node is itself already reached).  Each call runs one frontier
    sweep over a block-diagonal CSR of every snapshot's live edges, built
    once per oracle, instead of one search per snapshot: :meth:`reach` and
    :meth:`extend_reach` over flat ``(snapshot, node)`` keys
    (:func:`~repro.cascade.kernels.sweep_live`), :meth:`marginal_gain` over
    flat ``(candidate, snapshot, node)`` keys for a whole batch of
    candidates (:func:`~repro.cascade.kernels.new_reach_counts`).

    Masks may be boolean-style (length *m*) or packed bitsets
    (:mod:`repro.utils.bitset`); a homogeneous packed sample is kept packed
    end to end — the stacked matrix stores one bit per edge — and every
    oracle result is bit-identical across the two representations.
    """

    def __init__(
        self,
        graph: DiGraph,
        masks: Sequence[np.ndarray],
    ) -> None:
        if not masks:
            raise CascadeError("at least one snapshot mask is required")
        self.graph = graph
        self.masks = list(masks)
        # Stacked (snapshots, edges-or-words) view: every sweep covers all
        # snapshots at once.
        self.mask_matrix = stack_masks(self.masks, graph.num_edges)

    @property
    def num_snapshots(self) -> int:
        return len(self.masks)

    @cached_property
    def _live_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Block-diagonal CSR of every snapshot's live edges, built on first use."""
        return live_csr(self.graph, self.mask_matrix)

    def spread(self, seeds: Sequence[int]) -> float:
        """Average number of nodes reachable from *seeds* over all snapshots."""
        return int(self.reach(seeds).sum()) / len(self.masks)

    def reach(self, seeds: Sequence[int]) -> np.ndarray:
        """``(snapshots, n)`` boolean array of the nodes *seeds* reach."""
        return reach_rows(
            *self._live_csr, seeds, len(self.masks), self.graph.num_nodes
        )

    def _checked_nodes(self, nodes: object, reached: np.ndarray) -> np.ndarray:
        """*nodes* as a 1-D int64 array, validated against the graph and *reached*."""
        n = self.graph.num_nodes
        arr = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if arr.ndim != 1:
            raise CascadeError(
                f"candidates must be a node id or a 1-D array, got shape {arr.shape}"
            )
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            raise GraphError(f"node {int(arr[bad][0])} out of range [0, {n})")
        if reached.shape != (len(self.masks), n):
            raise CascadeError(
                f"reached array shape {reached.shape} does not match "
                f"(snapshots, nodes) = {(len(self.masks), n)}"
            )
        return arr

    def extend_reach(self, reached: np.ndarray, new_seed: int) -> None:
        """Mutate *reached* in place to include everything reachable from *new_seed*.

        *reached* must be C-contiguous, as :meth:`reach` returns it.
        """
        seed = int(self._checked_nodes(new_seed, reached)[0])
        if not reached.flags.c_contiguous:
            raise CascadeError("reached array must be C-contiguous")
        n = self.graph.num_nodes
        frontier = np.flatnonzero(~reached[:, seed]) * n + seed
        visited = reached.reshape(-1)
        visited[frontier] = True
        sweep_live(*self._live_csr, visited, frontier)

    @overload
    def marginal_gain(self, candidates: int, reached: np.ndarray) -> float: ...

    @overload
    def marginal_gain(
        self, candidates: Sequence[int] | np.ndarray, reached: np.ndarray
    ) -> np.ndarray: ...

    def marginal_gain(
        self, candidates: int | Sequence[int] | np.ndarray, reached: np.ndarray
    ) -> float | np.ndarray:
        """Average count of nodes newly reached by adding each candidate.

        *candidates* is one node id (returns a float) or a 1-D array of ids
        (returns a float array, one gain per entry, duplicates included).
        All candidates are evaluated in one frontier sweep
        (:func:`~repro.cascade.kernels.new_reach_counts`); *reached* is
        only read.
        """
        nodes = self._checked_nodes(candidates, reached)
        counts = new_reach_counts(*self._live_csr, reached, nodes)
        gains = counts / len(self.masks)
        return float(gains[0]) if np.ndim(candidates) == 0 else gains
