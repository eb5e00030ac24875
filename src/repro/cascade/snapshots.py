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

from collections.abc import Sequence
from functools import cached_property
from typing import overload

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import live_csr, new_reach_counts, reach_rows, sweep_live
from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import is_packed, num_words, pack_bits, unpack_bits
from repro.utils.rng import RandomSource, as_rng


#: Uniform draws per block when sampling masks of a default-sampler model:
#: bounds the block's float matrix at 1 MiB.
_DRAWS_PER_BLOCK = 1 << 17


def sample_snapshots(
    graph: DiGraph,
    model: CascadeModel,
    count: int,
    rng: RandomSource = None,
    packed: bool = False,
) -> list[np.ndarray]:
    """Draw *count* independent live-edge masks from *model* on *graph*.

    A model on the default sampler (IC, WC: an edge is live when its
    uniform draw is below its probability) has its edge probabilities
    computed once and draws the masks as ``(rows, m)`` uniform blocks; a
    PCG64 block equals the same number of sequential ``random(m)`` draws
    bit for bit, so the masks and the generator's end state are those of
    the per-mask loop.  A model with its own sampler (LT) draws mask by
    mask.

    With ``packed=True`` each mask is returned as a packed bitset
    (``uint64`` words, 8x smaller) holding exactly the same bits — the
    generator is consumed identically, so the packed sample is the packed
    form of the boolean sample for the same *rng*.
    """
    if count <= 0:
        raise CascadeError(f"snapshot count must be positive, got {count}")
    generator = as_rng(rng)
    masks: list[np.ndarray] = []
    if type(model).sample_live_mask is CascadeModel.sample_live_mask:
        probs = model.edge_probabilities(graph)
        rows = max(1, _DRAWS_PER_BLOCK // max(probs.size, 1))
        for start in range(0, count, rows):
            block = generator.random((min(rows, count - start), probs.size)) < probs
            masks.extend(block)
    else:
        masks = [model.sample_live_mask(graph, generator) for _ in range(count)]
    if packed:
        return [pack_bits(mask) for mask in masks]
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
