"""General Threshold model (Kempe et al. 2003, §"general threshold").

Each node *v* has a monotone activation function ``f_v(S)`` over sets of
active in-neighbours and a random threshold ``θ_v ~ U[0,1]``; *v*
activates once ``f_v(active in-neighbours) ≥ θ_v``.  LT is the special
case ``f_v(S) = Σ_{u∈S} b(u,v)``; IC corresponds to
``f_v(S) = 1 − Π_{u∈S}(1 − p_{uv})``.

The paper's related-work discussion (Borodin et al., WINE'10) extends
competitive influence to threshold models; this module provides the
single-group substrate with pluggable activation functions, so the
library covers the full triggering-model family the paper claims GetReal
is orthogonal to.  Activation functions that are not of triggering form
have no exact live-edge representation — ``sample_live_mask`` raises in
that case rather than silently producing a biased oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng

#: f(weights_of_active_in_neighbours, in_degree) -> activation level in [0, 1].
ActivationFunction = Callable[[np.ndarray, int], float]


def linear_activation(weights: np.ndarray, in_degree: int) -> float:
    """LT-style: sum of active in-neighbour weights (each 1/in_degree)."""
    if in_degree == 0:
        return 0.0
    return float(weights.sum())


def independent_activation(probability: float) -> ActivationFunction:
    """IC-style: ``1 − (1 − p)^{#active in-neighbours}``."""

    def f(weights: np.ndarray, in_degree: int) -> float:
        return 1.0 - (1.0 - probability) ** weights.shape[0]

    return f


def majority_activation(weights: np.ndarray, in_degree: int) -> float:
    """Deterministic-flavoured: activation level = active fraction, squared.

    Convex in the active fraction — activation needs a *critical mass*,
    the regime studied in complex-contagion work.  Not a triggering model.
    """
    if in_degree == 0:
        return 0.0
    fraction = weights.shape[0] / in_degree
    return float(fraction * fraction)


class GeneralThreshold(CascadeModel):
    """General Threshold model with a pluggable activation function.

    Parameters
    ----------
    activation:
        Function of (active in-neighbour weight array, in-degree) giving
        the activation level compared against the uniform threshold.
        Defaults to :func:`linear_activation` (i.e. LT).
    triggering:
        Declare whether the activation function is of triggering form.
        Only triggering models can provide live-edge snapshots; the LT
        default is triggering.
    """

    name = "gt"

    def __init__(
        self,
        activation: ActivationFunction = linear_activation,
        triggering: bool = True,
    ) -> None:
        self.activation = activation
        self.triggering = bool(triggering)

    def edge_probabilities(self, graph: DiGraph) -> np.ndarray:
        """LT-style weights 1/in_degree(v); used as weights, and as the
        triggering distribution when ``triggering`` is declared."""
        in_deg = graph.in_degrees().astype(float)
        safe = np.maximum(in_deg, 1.0)
        _, dst = graph.edge_array()
        return 1.0 / safe[dst]

    def sample_live_mask(self, graph: DiGraph, rng: RandomSource = None) -> np.ndarray:
        if not self.triggering:
            raise CascadeError(
                "this activation function is not of triggering form; "
                "live-edge snapshots would be biased"
            )
        from repro.cascade.lt import LinearThreshold

        return LinearThreshold().sample_live_mask(graph, rng)

    def simulate(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> np.ndarray:
        """One general-threshold diffusion."""
        generator = as_rng(rng)
        n = graph.num_nodes
        thresholds = generator.random(n)
        in_deg = graph.in_degrees()
        weight_in = 1.0 / np.maximum(in_deg.astype(float), 1.0)

        active = np.zeros(n, dtype=bool)
        active_in_count = np.zeros(n, dtype=np.int64)
        frontier: list[int] = []
        for s in seeds:
            if not 0 <= s < n:
                raise CascadeError(f"seed {s} out of range [0, {n})")
            if not active[s]:
                active[s] = True
                frontier.append(int(s))

        while frontier:
            next_frontier: list[int] = []
            touched: set[int] = set()
            for u in frontier:
                for v in graph.out_neighbors(u):
                    if not active[v]:
                        active_in_count[v] += 1
                        touched.add(int(v))
            # Sorted for a canonical frontier order (RP011): activation here
            # draws no randomness, but downstream consumers see the frontier.
            for v in sorted(touched):
                weights = np.full(active_in_count[v], weight_in[v])
                level = self.activation(weights, int(in_deg[v]))
                if level >= thresholds[v]:
                    active[v] = True
                    next_frontier.append(v)
            frontier = next_frontier
        return active

    def __repr__(self) -> str:
        return f"GeneralThreshold(activation={self.activation.__name__}, triggering={self.triggering})"
