"""One-at-a-time reference versions of the batched selection paths.

:func:`celf_one_at_a_time` is the plain CELF loop of Leskovec et al.: pop
the heap top, re-evaluate it alone if stale, accept it if fresh.  It
evaluates a marginal gain by per-snapshot BFS
(:meth:`~repro.graphs.digraph.DiGraph.reachable_from`), sharing nothing
with the reach closure of :mod:`repro.cascade.reachability`; the
production :func:`repro.algorithms.greedy.run_celf` re-evaluates stale
entries in doubling batches against that closure and must reproduce this
loop's picks and pick gains bit for bit.  :func:`reach_sizes_by_bfs` is
the per-row BFS that the stacked reach DP is checked against.
:func:`degree_discount_loop`, :func:`single_discount_loop` and
:func:`high_degree_by_argsort` are the O(k·n) heuristics that re-mask and
argmax every score per pick (or sort all of them); the live-key kernel of
:mod:`repro.algorithms.discount` must return their seeds and leave the
generator in their end state.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.algorithms.greedy import CelfTrace
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import is_packed, unpack_bits
from repro.utils.rng import RandomSource, as_rng


def celf_one_at_a_time(
    graph: DiGraph, masks: Sequence[np.ndarray], k: int, gains: list[float]
) -> tuple[list[int], CelfTrace, int]:
    """CELF with one per-snapshot BFS evaluation per stale pop.

    A candidate's gain is ``|R(picks + [v])| - |R(picks)|`` summed over the
    snapshots and divided by their count once.  Returns the seeds, the
    trace and the number of evaluations.
    """
    rows = [unpack_bits(m, graph.num_edges) if is_packed(m) else m for m in masks]
    heap: list[tuple[float, int, int]] = [
        (-gain, v, 0) for v, gain in enumerate(gains)
    ]
    heapq.heapify(heap)
    trace = CelfTrace()
    reached = [graph.reachable_from([], row) for row in rows]
    iteration = 0
    evaluations = 0
    while len(trace.picks) < k:
        neg_gain, v, stamp = heapq.heappop(heap)
        if stamp == iteration:
            trace.picks.append(v)
            trace.pick_gains.append(-neg_gain)
            reached = [graph.reachable_from(trace.picks, row) for row in rows]
            iteration += 1
        else:
            count = sum(
                int(graph.reachable_from(trace.picks + [v], row).sum() - done.sum())
                for row, done in zip(rows, reached)
            )
            evaluations += 1
            heapq.heappush(heap, (-(count / len(rows)), v, iteration))
    return list(trace.picks), trace, evaluations


def reach_sizes_by_bfs(graph: DiGraph, mask: np.ndarray | None) -> list[int]:
    """``|R(v)|`` of every node under one live-edge mask, one BFS per node."""
    return [
        int(graph.reachable_from([v], mask).sum()) for v in range(graph.num_nodes)
    ]


def degree_discount_loop(
    graph: DiGraph, k: int, probability: float, rng: RandomSource = None
) -> list[int]:
    """DegreeDiscountIC with a full masked argmax per pick."""
    generator = as_rng(rng)
    n = graph.num_nodes
    p = probability

    degree = graph.out_degrees().astype(float)
    dd = degree.copy()
    t = np.zeros(n)
    selected = np.zeros(n, dtype=bool)
    jitter = generator.random(n) * 1e-9

    seeds: list[int] = []
    for _ in range(k):
        masked = np.where(selected, -np.inf, dd + jitter)
        u = int(np.argmax(masked))
        selected[u] = True
        seeds.append(u)
        for v in graph.out_neighbors(u):
            if selected[v]:
                continue
            t[v] += 1.0
            dd[v] = degree[v] - 2.0 * t[v] - (degree[v] - t[v]) * t[v] * p
    return seeds


def single_discount_loop(graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
    """SingleDiscount with a full masked argmax per pick."""
    generator = as_rng(rng)
    n = graph.num_nodes

    remaining = graph.out_degrees().astype(float)
    selected = np.zeros(n, dtype=bool)
    jitter = generator.random(n) * 1e-9

    seeds: list[int] = []
    for _ in range(k):
        masked = np.where(selected, -np.inf, remaining + jitter)
        u = int(np.argmax(masked))
        selected[u] = True
        seeds.append(u)
        for v in graph.out_neighbors(u):
            if not selected[v]:
                remaining[v] -= 1.0
    return seeds


def high_degree_by_argsort(graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
    """Top-*k* by ``degree + jitter`` through a stable sort of all n scores."""
    generator = as_rng(rng)
    scores = graph.out_degrees().astype(float) + generator.random(graph.num_nodes) * 1e-9
    order = np.argsort(-scores, kind="stable")
    return [int(v) for v in order[:k]]
