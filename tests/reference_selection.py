"""One-at-a-time reference versions of the batched selection paths.

:func:`celf_one_at_a_time` is the plain CELF loop of Leskovec et al.: pop
the heap top, re-evaluate it alone if stale, accept it if fresh.  The
production :func:`repro.algorithms.greedy.run_celf` re-evaluates stale
entries in doubling batches and must reproduce this loop's picks and pick
gains bit for bit.  :func:`reach_sizes_by_bfs` is the per-row BFS that the
stacked reach DP of :mod:`repro.cascade.reachability` is checked against.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algorithms.greedy import CelfTrace
from repro.cascade.snapshots import SnapshotOracle
from repro.graphs.digraph import DiGraph


def celf_one_at_a_time(
    oracle: SnapshotOracle, k: int, gains: list[float]
) -> tuple[list[int], CelfTrace, int]:
    """CELF with one ``marginal_gain`` call per stale pop.

    Returns the seeds, the trace and the number of evaluations.
    """
    heap: list[tuple[float, int, int]] = [
        (-gain, v, 0) for v, gain in enumerate(gains)
    ]
    heapq.heapify(heap)
    trace = CelfTrace()
    reached = oracle.reach([])
    iteration = 0
    evaluations = 0
    while len(trace.picks) < k:
        neg_gain, v, stamp = heapq.heappop(heap)
        if stamp == iteration:
            trace.picks.append(v)
            trace.pick_gains.append(-neg_gain)
            oracle.extend_reach(reached, v)
            iteration += 1
        else:
            fresh = oracle.marginal_gain(v, reached)
            evaluations += 1
            heapq.heappush(heap, (-fresh, v, iteration))
    return list(trace.picks), trace, evaluations


def reach_sizes_by_bfs(graph: DiGraph, mask: np.ndarray | None) -> list[int]:
    """``|R(v)|`` of every node under one live-edge mask, one BFS per node."""
    return [
        int(graph.reachable_from([v], mask).sum()) for v in range(graph.num_nodes)
    ]
