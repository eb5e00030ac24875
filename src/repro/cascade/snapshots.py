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
from repro.cascade.reachability import ReachClosure, reach_closure
from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import count_bits, is_packed, num_words, pack_bits, unpack_bits
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


#: Size budget of one reach DP, in live arcs plus block nodes: a mask
#: costs its live arcs and the graph's n nodes, the two dimensions of the
#: DP's block-diagonal arrays.  The DP's time is mostly per-level call
#: overhead, so fewer, larger DPs are faster, while its temporaries grow
#: with the run; the budget bounds them (measured in docs/algorithms.md).
#: Results never depend on it.
REACH_DP_BUDGET = 1 << 16


class SnapshotOracle:
    """Estimates spreads by reachability over a fixed set of live-edge masks.

    The oracle supports the incremental pattern greedy algorithms need:
    :meth:`reach` returns the reached sets of the current seed set as one
    ``(snapshots, n)`` boolean array (row *s* is snapshot *s*),
    :meth:`extend_reach` adds a seed to that array in place, and
    :meth:`marginal_gain` counts only *newly* reachable nodes.  All of them
    read the :attr:`closure` of the masks
    (:class:`~repro.cascade.reachability.ReachClosure`), built once on
    first use: each node's component per snapshot and each component's
    list of reached components.  A reached set is closed under reachability, so it is a
    union of components, and a batch of candidates' gains is one segment
    gather of their lists; :meth:`initial_gains` reads the reach sizes.

    The closure is built by DPs over near-equal runs of whole masks, each
    within :data:`REACH_DP_BUDGET`.  Every count is an integer divided by
    the snapshot count once, so no result depends on the split.

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
        # Stacked (snapshots, edges-or-words) view: every DP covers a run
        # of its rows.
        self.mask_matrix = stack_masks(self.masks, graph.num_edges)

    @property
    def num_snapshots(self) -> int:
        return len(self.masks)

    @cached_property
    def closure(self) -> ReachClosure:
        """The reach closure of every mask, built on first use."""
        count = len(self.masks)
        cost = count_bits(self.mask_matrix) + count * self.graph.num_nodes
        runs = min(count, -(-cost // REACH_DP_BUDGET))
        bounds = [count * i // runs for i in range(runs + 1)]
        return reach_closure(self.graph, self.mask_matrix, bounds)

    def initial_gains(self) -> list[float]:
        """Average reach size of every node as a lone seed: the NewGreedy gains."""
        totals = self.closure.reach_sizes().sum(axis=0, dtype=np.int64)
        gains: list[float] = (totals / len(self.masks)).tolist()
        return gains

    def spread(self, seeds: Sequence[int]) -> float:
        """Average number of nodes reachable from *seeds* over all snapshots."""
        return int(self.reach(seeds).sum()) / len(self.masks)

    def reach(self, seeds: Sequence[int]) -> np.ndarray:
        """``(snapshots, n)`` boolean array of the nodes *seeds* reach."""
        reached = np.zeros((len(self.masks), self.graph.num_nodes), dtype=bool)
        self.closure.mark(reached, self._checked_nodes(seeds, reached))
        return reached

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
        nodes = self._checked_nodes(new_seed, reached)
        if not reached.flags.c_contiguous:
            raise CascadeError("reached array must be C-contiguous")
        self.closure.mark(reached, nodes)

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
        All candidates are evaluated by one gather from the closure
        (:meth:`~repro.cascade.reachability.ReachClosure.new_reach_counts`);
        *reached* must be closed under reachability, as :meth:`reach` and
        :meth:`extend_reach` leave it, and is only read.
        """
        nodes = self._checked_nodes(candidates, reached)
        gains = self.closure.new_reach_counts(reached, nodes) / len(self.masks)
        return float(gains[0]) if np.ndim(candidates) == 0 else gains
