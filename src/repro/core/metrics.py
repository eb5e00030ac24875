"""Seed-overlap and coefficient metrics (Theorem 1, Corollary 1, Figures 3/4/10).

The paper characterizes the competitive payoff entries through four
coefficients relative to the non-competitive spreads ``g`` (strategy φ1)
and ``h`` (strategy φ2)::

    σ1(φ1, φ1) = λ·g        λ ∈ [1/2, 1 − ε1/(2g)]
    σ1(φ2, φ2) = γ·h        γ ∈ [1/2, 1 − ε2/(2h)]
    σ1(φ1, φ2) = α·g        α + β ∈ [1, 1 + (g − ε)/h]
    σ2(φ1, φ2) = β·h

This module estimates all of them — plus the Jaccard seed overlaps of
Figures 3 and 4 — by Monte-Carlo simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.algorithms.base import SeedSelector
from repro.cascade.base import CascadeModel
from repro.cascade.simulate import (
    SpreadEstimate,
    estimate_competitive_spread,
    estimate_spread,
)
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int


def jaccard(first: Sequence[int], second: Sequence[int]) -> float:
    """Jaccard similarity ``|S1 ∩ S2| / |S1 ∪ S2|`` of two seed sets."""
    a, b = set(first), set(second)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def seed_overlap_profile(
    graph: DiGraph,
    first: SeedSelector,
    second: SeedSelector,
    k: int,
    repeats: int = 5,
    rng: RandomSource = None,
) -> SpreadEstimate:
    """Average Jaccard similarity of independently drawn seed sets.

    Each repeat draws fresh seeds from both algorithms, reproducing the
    sampling the paper averages over in Figures 3 and 4.
    """
    check_positive_int(k, "k")
    check_positive_int(repeats, "repeats")
    generator = as_rng(rng)
    values = []
    for _ in range(repeats):
        s1 = first.select(graph, k, generator)
        s2 = second.select(graph, k, generator)
        values.append(jaccard(s1, s2))
    return SpreadEstimate.from_values(values)


@dataclass(frozen=True)
class CoefficientEstimates:
    """Estimated g, h, λ, γ, α, β (and the overlap terms ε) for a strategy pair."""

    g: float
    h: float
    lam: float
    gamma: float
    alpha: float
    beta: float
    epsilon_same_1: float
    epsilon_same_2: float
    epsilon_cross: float

    @property
    def alpha_plus_beta(self) -> float:
        return self.alpha + self.beta

    def theorem1_bounds(self) -> dict[str, tuple[float, float]]:
        """The intervals Theorem 1 / Corollary 1 predict for λ, γ, α+β."""
        lam_hi = 1.0 - self.epsilon_same_1 / (2.0 * self.g) if self.g > 0 else 1.0
        gamma_hi = 1.0 - self.epsilon_same_2 / (2.0 * self.h) if self.h > 0 else 1.0
        ab_hi = (
            1.0 + (self.g - self.epsilon_cross) / self.h if self.h > 0 else float("inf")
        )
        return {
            "lambda": (0.5, lam_hi),
            "gamma": (0.5, gamma_hi),
            "alpha+beta": (1.0, ab_hi),
        }

    def as_row(self) -> dict[str, object]:
        return {
            "g": self.g,
            "h": self.h,
            "lambda": self.lam,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha+beta": self.alpha_plus_beta,
        }


def estimate_coefficients(
    graph: DiGraph,
    model: CascadeModel,
    phi1: SeedSelector,
    phi2: SeedSelector,
    k: int,
    rounds: int = 30,
    rng: RandomSource = None,
) -> CoefficientEstimates:
    """Estimate the paper's coefficients for the pair (φ1, φ2) at budget *k*.

    One independent seed draw per group per strategy; *rounds* simulations
    per quantity.  The ε terms are the non-competitive spreads of the seed
    intersections, matching ``ε_i = E(σ0(S1 ∩ S2))`` in Theorem 1.
    """
    check_positive_int(k, "k")
    generator = as_rng(rng)
    s1_a = phi1.select(graph, k, generator)
    s1_b = phi1.select(graph, k, generator)
    s2_a = phi2.select(graph, k, generator)
    s2_b = phi2.select(graph, k, generator)
    return estimate_coefficients_from_seeds(
        graph, model, s1_a, s1_b, s2_a, s2_b, rounds, generator
    )


def estimate_coefficients_from_seeds(
    graph: DiGraph,
    model: CascadeModel,
    s1_a: Sequence[int],
    s1_b: Sequence[int],
    s2_a: Sequence[int],
    s2_b: Sequence[int],
    rounds: int = 30,
    rng: RandomSource = None,
) -> CoefficientEstimates:
    """Coefficient estimation from pre-drawn seed sets.

    ``s1_a``/``s1_b`` are two independent draws of strategy φ1 (one per
    group), ``s2_a``/``s2_b`` of φ2.
    """
    check_positive_int(rounds, "rounds")
    generator = as_rng(rng)

    g = estimate_spread(graph, model, s1_a, rounds, generator).mean
    h = estimate_spread(graph, model, s2_a, rounds, generator).mean

    same1 = estimate_competitive_spread(
        graph, model, [s1_a, s1_b], rounds, generator
    )
    same2 = estimate_competitive_spread(
        graph, model, [s2_a, s2_b], rounds, generator
    )
    cross = estimate_competitive_spread(
        graph, model, [s1_a, s2_a], rounds, generator
    )

    def overlap_spread(first: Sequence[int], second: Sequence[int]) -> float:
        shared = sorted(set(first) & set(second))
        if not shared:
            return 0.0
        return estimate_spread(graph, model, shared, rounds, generator).mean

    lam = same1[0].mean / g if g > 0 else 0.5
    gamma = same2[0].mean / h if h > 0 else 0.5
    alpha = cross[0].mean / g if g > 0 else 0.5
    beta = cross[1].mean / h if h > 0 else 0.5

    return CoefficientEstimates(
        g=g,
        h=h,
        lam=lam,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
        epsilon_same_1=overlap_spread(s1_a, s1_b),
        epsilon_same_2=overlap_spread(s2_a, s2_b),
        epsilon_cross=overlap_spread(s1_a, s2_a),
    )
