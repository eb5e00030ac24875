"""Greedy IM algorithm: MixGreedy (NewGreedy + CELF).

``MixGreedy`` is the algorithm of Chen, Wang & Yang (KDD'09) the paper uses
as its strong strategy (MGIC under IC, MGWC under WC): sample ``R``
live-edge snapshots once, compute the exact first-round spread of *every*
node on them via SCC-condensation reachability (the NewGreedy step), then
run CELF lazy-greedy for the remaining ``k−1`` picks against the same
snapshots.  Because the snapshots are freshly sampled per ``select`` call,
the algorithm is randomized — two groups running MixGreedy independently
get overlapping but not identical seed sets, which is exactly the behaviour
the paper's Theorem 1 footnote relies on.

A selection runs one reach DP: the closure of its
:class:`~repro.cascade.snapshots.SnapshotOracle`, which keeps each
component's list of reached components.  The NewGreedy gains are its
reach sizes, and CELF's lazy re-evaluations run as doubling batches of
candidates, each batch one gather from the same closure.  Every count is
an integer divided by the snapshot count once, so gains and picks are
exact.

When a shared :class:`~repro.cascade.pools.SnapshotPool` is passed to
``select`` (the payoff estimator creates one per ``(draw, group)``),
MixGreedy draws its masks, oracle, and initial gains from the pool via
``_select_pooled`` instead of resampling privately.  Such a selection
takes one integer from the caller's generator (the pool token) and is
otherwise a function of (graph, model, count, token, k), so it runs as a
:class:`~repro.algorithms.base.SelectionJob` — sampling, closure and CELF
together — inline or on a worker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.cascade.base import CascadeModel
from repro.cascade.pools import SnapshotPool
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.exec.executor import Executor
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int


@dataclass
class CelfTrace:
    """What one CELF run decided: the picks and their accepted marginal gains."""

    picks: list[int] = field(default_factory=list)
    pick_gains: list[float] = field(default_factory=list)


def _stale_batch(
    heap: list[tuple[float, int, int]],
    size: int,
    iteration: int,
    evaluated: dict[int, float],
) -> list[int]:
    """Up to *size* not-yet-evaluated stale nodes from the top of *heap*.

    Stops at the first entry that is fresh at *iteration*: one-at-a-time
    CELF accepts that entry before it pops anything below it.  The heap is
    left as it was.
    """
    popped: list[tuple[float, int, int]] = []
    nodes: list[int] = []
    while heap and len(nodes) < size and heap[0][2] != iteration:
        entry = heapq.heappop(heap)
        popped.append(entry)
        if entry[1] not in evaluated:
            nodes.append(entry[1])
    for entry in popped:
        heapq.heappush(heap, entry)
    return nodes


def run_celf(oracle: SnapshotOracle, k: int, gains: list[float]) -> tuple[list[int], CelfTrace]:
    """CELF lazy greedy over *oracle* from per-node initial *gains*.

    Returns the seed set and a :class:`CelfTrace` of the accepted gains.
    The accepted pick of every iteration is the minimum-id maximizer of the
    true marginal gain at that iteration (heap tuples break gain ties by
    node id, and a pick is only accepted once its gain is certified fresh).

    Heap entries are ``(-gain bound, node, stamp)``; an entry is fresh when
    its stamp equals the current pick depth.  A stale entry at the top is
    re-evaluated together with the stale entries just below it, in one
    batched :meth:`SnapshotOracle.marginal_gain` gather: the batch holds one
    node, doubles on every re-evaluation within a pick and resets to one
    when a pick is accepted.  The heap then replays one-at-a-time CELF
    exactly — a batch value is pushed only when its node reaches the top
    within the same pick, and the rest are dropped at the pick — so picks,
    pick gains and the heap match the unbatched loop bit for bit.
    """
    heap: list[tuple[float, int, int]] = [
        (-gain, v, 0) for v, gain in enumerate(gains)
    ]
    heapq.heapify(heap)
    trace = CelfTrace()
    reached = oracle.reach([])
    iteration = 0
    batch = 1
    evaluated: dict[int, float] = {}
    while len(trace.picks) < k:
        neg_gain, v, stamp = heapq.heappop(heap)
        if stamp == iteration:
            trace.picks.append(v)
            trace.pick_gains.append(-neg_gain)
            oracle.extend_reach(reached, v)
            iteration += 1
            batch = 1
            evaluated.clear()
            continue
        if v not in evaluated:
            nodes = [v, *_stale_batch(heap, batch - 1, iteration, evaluated)]
            gains_batch = oracle.marginal_gain(np.asarray(nodes, dtype=np.int64), reached)
            evaluated.update(zip(nodes, gains_batch.tolist()))
            batch *= 2
        heapq.heappush(heap, (-evaluated.pop(v), v, iteration))
    return list(trace.picks), trace


class MixGreedy(SeedSelector):
    """MixGreedy of Chen et al. — NewGreedy first round, CELF afterwards.

    The paper's strategy labels follow the cascade model: ``mgic`` with
    :class:`~repro.cascade.ic.IndependentCascade`, ``mgwc`` with
    :class:`~repro.cascade.wc.WeightedCascade`.  CELF's first-pick gains
    are the singleton spreads, the same integers as the NewGreedy reach
    sizes, so both steps read one closure of a live-edge snapshot oracle.

    *executor* is accepted for call compatibility and not used: a
    selection's one DP runs in the process that selects.
    """

    uses_snapshots: ClassVar[bool] = True

    def __init__(
        self,
        model: CascadeModel,
        num_snapshots: int = 100,
        executor: Executor | None = None,
    ) -> None:
        self.model = model
        self.num_snapshots = check_positive_int(num_snapshots, "num_snapshots")
        self.name = f"mg{model.name}"

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        k = self._check_budget(graph, k)
        generator = as_rng(rng)
        # A private, freshly sampled pool is semantically required here:
        # without a shared pool each select call must stay independently
        # randomized (the Theorem 1 footnote behaviour).
        masks = sample_snapshots(
            graph, self.model, self.num_snapshots, generator
        )
        oracle = SnapshotOracle(graph, masks)
        seeds, _ = run_celf(oracle, k, oracle.initial_gains())
        return seeds

    def _select_pooled(self, graph: DiGraph, k: int, pool: SnapshotPool) -> list[int]:
        """Select against the group's shared masks and shared initial gains."""
        k = self._check_budget(graph, k)
        oracle = pool.oracle(self.model, self.num_snapshots)
        gains = pool.initial_gains(self.model, self.num_snapshots)
        seeds, _ = run_celf(oracle, k, gains)
        return seeds
