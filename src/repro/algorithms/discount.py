"""The discount-selection kernel shared by the degree heuristics.

DegreeDiscount, SingleDiscount and HighDegree (Chen, Wang & Yang, KDD'09)
all pick, k times, the unselected node with the highest score, where a
node's score is a function of its out-degree ``d_v`` and of ``t_v``, the
number of already-selected seeds among its in-neighbours.  A pick changes
``t`` only for the picked node's out-neighbours, so the kernel keeps one
live ``key = score + jitter`` array and, per pick, takes one vectorized
argmax and rescores just those neighbours: O(n + k·deg) plus k argmax
sweeps, instead of re-masking and re-adding all n scores per pick (the
lazy-update idea of CELF, Leskovec et al., KDD'07).

The seeds are exactly those of the plain per-pick loop
(``tests/reference_selection.py``): the one ``random(n) * 1e-9`` jitter
draw, the same float expression per node, and argmax's lowest-index tie
rule.  :class:`~repro.graphs.digraph.DiGraph` stores each arc once and no
self-loops, so plain fancy indexing counts every selected in-neighbour once.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng


class DiscountSelector(SeedSelector):
    """Greedy by a discounted-degree score, ties broken by random jitter.

    Subclasses supply :meth:`score`; selected nodes hold ``-inf`` in the
    live key array, and every other entry is ``score(d_v, t_v) + jitter_v``.
    """

    @abstractmethod
    def score(self, degree: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Elementwise score of out-degree *degree* at *t* selected in-neighbours.

        Called only with ``t >= 1``: before the first pick every node
        scores its degree.
        """

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        k = self._check_budget(graph, k)
        generator = as_rng(rng)
        indptr, indices = graph.out_indptr, graph.out_indices

        degree = graph.out_degrees().astype(float)
        t = np.zeros(graph.num_nodes)
        # Random jitter breaks ties between equal scores, so the heuristic
        # is randomized the way the paper's footnote assumes.  Before the
        # first pick every score is the degree itself.
        jitter = generator.random(graph.num_nodes) * 1e-9
        key = degree + jitter

        seeds: list[int] = []
        for _ in range(k):
            u = int(np.argmax(key))
            key[u] = -np.inf
            seeds.append(u)
            nbrs = indices[indptr[u]: indptr[u + 1]]
            nbrs = nbrs[key[nbrs] != -np.inf]
            t[nbrs] += 1.0
            key[nbrs] = self.score(degree[nbrs], t[nbrs]) + jitter[nbrs]
        return seeds
