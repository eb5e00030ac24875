"""Simple baseline strategies: high degree, PageRank, and random seeds.

These extend the paper's strategy space beyond the four algorithms of its
evaluation — GetReal is explicitly agnostic to which IM algorithms populate
Φ ("Other IM techniques ... can be chosen as well").
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.algorithms.discount import DiscountSelector
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_fraction, check_positive_int


class HighDegree(DiscountSelector):
    """Top-*k* nodes by out-degree, ties broken randomly.

    The zero-discount rule of the discount kernel: a pick lowers no score,
    so the picks are the *k* highest ``degree + jitter`` in descending
    order, lowest index first on ties.
    """

    name = "degree"

    def score(self, degree: np.ndarray, t: np.ndarray) -> np.ndarray:
        return degree


class RandomSeeds(SeedSelector):
    """Uniformly random distinct seeds — the weakest sensible strategy."""

    name = "random"

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        k = self._check_budget(graph, k)
        generator = as_rng(rng)
        # A full permutation (not rng.choice) keeps the selection
        # prefix-consistent: the same seed yields the same ordering for
        # every budget, so select(k_max)[:k] == select(k).
        return [int(v) for v in generator.permutation(graph.num_nodes)[:k]]


class PageRankSeeds(SeedSelector):
    """Top-*k* nodes by PageRank (power iteration, damping 0.85).

    PageRank favours nodes *pointed at* by important nodes; for influence
    maximization the natural variant ranks by PageRank of the **reversed**
    graph (influence flows outward), which is what ``reverse=True`` (the
    default) computes.
    """

    name = "pagerank"

    def __init__(
        self,
        damping: float = 0.85,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
        reverse: bool = True,
    ) -> None:
        self.damping = check_fraction(damping, "damping")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.tolerance = float(tolerance)
        self.reverse = bool(reverse)

    def scores(self, graph: DiGraph) -> np.ndarray:
        """PageRank vector over nodes (sums to 1)."""
        target = graph.reverse() if self.reverse else graph
        n = target.num_nodes
        if n == 0:
            return np.zeros(0)
        out_deg = target.out_degrees().astype(float)
        dangling = out_deg == 0
        inv_out = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1.0))

        rank = np.full(n, 1.0 / n)
        src, dst = target.edge_array()
        for _ in range(self.max_iterations):
            contrib = rank * inv_out
            incoming = np.zeros(n)
            np.add.at(incoming, dst, contrib[src])
            dangling_mass = rank[dangling].sum() / n
            new_rank = (1.0 - self.damping) / n + self.damping * (
                incoming + dangling_mass
            )
            if np.abs(new_rank - rank).sum() < self.tolerance:
                rank = new_rank
                break
            rank = new_rank
        return rank / rank.sum()

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        k = self._check_budget(graph, k)
        generator = as_rng(rng)
        scores = self.scores(graph) + generator.random(graph.num_nodes) * 1e-15
        order = np.argsort(-scores, kind="stable")
        return [int(v) for v in order[:k]]
