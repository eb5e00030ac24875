"""Competitive multi-group diffusion (Section 3.2 of the paper).

Two mechanisms distinguish competitive from classical diffusion:

**Seed collisions.**  Groups select their seed sets independently, so a node
may appear in several of them.  The paper's bitmap construction assigns such
a node as an *initiator* of exactly one selecting group, uniformly at random
(:data:`TieBreakRule.UNIFORM`).  The proportional variant criticized in the
paper's discussion of Goyal–Kearns is provided for the ablation bench
(:data:`TieBreakRule.PROPORTIONAL`: weight each selecting group by its count
of uncontested seeds).

**Competitive activation.**  In round ``i+1``, a node *v* with ``t_j``
newly-active in-neighbours of group *j* becomes active with the classical
probability computed from the combined count ``T = Σ_j t_j`` — e.g.
``1 − (1 − p)^T`` under IC — and is then claimed by group *j* with
probability ``t_j / T`` (:data:`ClaimRule.PROPORTIONAL`, the paper's rule).
A winner-take-all variant (most attempts wins, ties uniform) is provided for
ablations.  Once claimed, a node never switches groups (the paper's third
assumption).

The engine accepts any :class:`~repro.cascade.base.CascadeModel`.  Models
that define per-edge success probabilities (IC, WC, and any heterogeneous-p
variant) run through the cascade path; :class:`LinearThreshold` runs through
a threshold path where a node is claimed in proportion to each group's share
of the accumulated in-neighbour weight.

The inner loops live in :mod:`repro.cascade.kernels`.  :meth:`~CompetitiveDiffusion.run`
returns one diffusion's full per-node outcome; :meth:`~CompetitiveDiffusion.spreads`
returns only the per-group spreads of many diffusions and runs the cascade
path's rounds as one batched frontier sweep.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import (
    ClaimRule,
    run_competitive_cascades,
    run_competitive_threshold,
)
from repro.cascade.lt import LinearThreshold
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.lint import contracts
from repro.obs.metrics import Histogram, counter, histogram
from repro.utils.rng import RandomSource, as_rng

__all__ = [
    "ClaimRule",
    "CompetitiveDiffusion",
    "CompetitiveOutcome",
    "TieBreakRule",
    "assign_initiators",
]

# Cached instrument handles: incremented once per simulation (or round), so
# the per-simulation overhead is a handful of attribute updates (RP004).
_SIMULATIONS = counter("cascade.simulations")
_ROUNDS = counter("cascade.rounds")
_NODES_ACTIVATED = counter("cascade.nodes_activated")
_SEED_COLLISIONS = counter("cascade.seed_collisions")

# Per-group spread histograms have dynamic names ("cascade.group1.spread"…),
# so they are memoized here instead of re-resolved — and re-formatted — on
# every simulation.  Handles survive metrics.reset(), so the cache is safe.
# The memo is written from thread-backend jobs, hence the lock (RP013).
_GROUP_SPREADS: dict[int, Histogram] = {}
_GROUP_SPREADS_LOCK = threading.Lock()


def _group_spread_histogram(group: int) -> Histogram:
    try:
        return _GROUP_SPREADS[group]
    except KeyError:
        with _GROUP_SPREADS_LOCK:
            handle = _GROUP_SPREADS.get(group)
            if handle is None:
                handle = histogram(f"cascade.group{group + 1}.spread")  # reprolint: disable=RP004
                _GROUP_SPREADS[group] = handle
            return handle


class TieBreakRule(enum.Enum):
    """How a seed selected by several groups picks its initiator group."""

    #: Equal chance among the selecting groups (the paper's rule).
    UNIFORM = "uniform"
    #: Weighted by each selecting group's count of uncontested seeds
    #: (a realizable stand-in for the Goyal–Kearns proportional rule).
    PROPORTIONAL = "proportional"


@dataclass
class CompetitiveOutcome:
    """Result of one competitive diffusion.

    Attributes
    ----------
    owner:
        Integer array over nodes; ``owner[v]`` is the group that activated
        *v*, or ``-1`` if *v* stayed inactive.
    initiators:
        Per-group lists of initiator nodes (disjoint; the resolution of seed
        collisions for this run).
    rounds:
        Number of diffusion rounds until quiescence.
    """

    owner: np.ndarray
    initiators: list[list[int]]
    rounds: int
    activation_round: np.ndarray | None = None
    _counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_groups(self) -> int:
        return len(self.initiators)

    def spread(self, group: int) -> int:
        """Number of nodes claimed by *group*."""
        return int(self.spreads()[group])

    def spreads(self) -> np.ndarray:
        """Array of claimed-node counts, one entry per group."""
        if self._counts is None:
            counts = np.zeros(self.num_groups, dtype=np.int64)
            claimed = self.owner[self.owner >= 0]
            np.add.at(counts, claimed, 1)
            self._counts = counts
        return self._counts

    @property
    def total_activated(self) -> int:
        """Nodes activated by any group."""
        return int((self.owner >= 0).sum())

    def timeline(self) -> np.ndarray:
        """New activations per (round, group); shape ``(rounds + 1, r)``.

        Row 0 counts the initiators; row *t* the nodes claimed in round
        *t*.  Useful for studying how quickly each campaign saturates its
        share of the market.
        """
        if self.activation_round is None:
            raise ValueError("this outcome was produced without round tracking")
        out = np.zeros((self.rounds + 1, self.num_groups), dtype=np.int64)
        active = self.owner >= 0
        np.add.at(
            out,
            (self.activation_round[active], self.owner[active]),
            1,
        )
        return out


def assign_initiators(
    num_nodes: int,
    seed_sets: Sequence[Sequence[int]],
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    rng: RandomSource = None,
) -> list[list[int]]:
    """Resolve seed collisions: map overlapping seed sets to disjoint initiator sets.

    Implements the bitmap construction of Section 3.2: a seed selected only
    by group *i* always initiates for *i*; a seed selected by groups
    ``{j1..js, i}`` initiates for exactly one of them (uniformly under the
    paper's rule).
    """
    generator = as_rng(rng)
    r = len(seed_sets)
    if r == 0:
        return []

    selectors: dict[int, list[int]] = {}
    for i, seeds in enumerate(seed_sets):
        for s in seeds:
            if not 0 <= s < num_nodes:
                raise CascadeError(f"seed {s} out of range [0, {num_nodes})")
            groups = selectors.setdefault(int(s), [])
            if i not in groups:
                groups.append(i)

    if tie_break is TieBreakRule.PROPORTIONAL:
        exclusive = np.zeros(r, dtype=float)
        for groups in selectors.values():
            if len(groups) == 1:
                exclusive[groups[0]] += 1.0
    initiators: list[list[int]] = [[] for _ in range(r)]
    contested = 0
    for node, groups in selectors.items():
        if len(groups) == 1:
            winner = groups[0]
        elif tie_break is TieBreakRule.UNIFORM:
            contested += 1
            winner = groups[int(generator.integers(0, len(groups)))]
        else:
            contested += 1
            weights = np.array([exclusive[g] for g in groups])
            if weights.sum() == 0:
                winner = groups[int(generator.integers(0, len(groups)))]
            else:
                weights = weights / weights.sum()
                winner = groups[int(generator.choice(len(groups), p=weights))]
        initiators[winner].append(node)
    if contested:
        _SEED_COLLISIONS.inc(contested)
    return initiators


class CompetitiveDiffusion:
    """Simultaneous multi-group diffusion engine.

    Parameters
    ----------
    graph:
        The network.
    model:
        Any :class:`CascadeModel`; IC/WC-style models run the cascade path,
        :class:`LinearThreshold` the threshold path.
    tie_break:
        Seed-collision rule (see :class:`TieBreakRule`).
    claim_rule:
        Node-attribution rule (see :class:`ClaimRule`).
    """

    def __init__(
        self,
        graph: DiGraph,
        model: CascadeModel,
        tie_break: TieBreakRule = TieBreakRule.UNIFORM,
        claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    ) -> None:
        self.graph = graph
        self.model = model
        self.tie_break = tie_break
        self.claim_rule = claim_rule
        self._edge_probs: np.ndarray | None = None

    def _probs(self) -> np.ndarray:
        if self._edge_probs is None:
            self._edge_probs = self.model.edge_probabilities(self.graph)
        return self._edge_probs

    def _prepare(self, seed_sets: Sequence[Sequence[int]]) -> np.ndarray | None:
        """Validate *seed_sets*; the cascade path's edge probabilities.

        ``None`` means the threshold path.  Probabilities are checked when
        contracts are enabled.
        """
        if not seed_sets:
            raise CascadeError("at least one seed set is required")
        if isinstance(self.model, LinearThreshold):
            return None
        probs = self._probs()
        if contracts.enabled():
            contracts.check_probabilities(probs, "edge probabilities")
        return probs

    def run(
        self,
        seed_sets: Sequence[Sequence[int]],
        rng: RandomSource = None,
    ) -> CompetitiveOutcome:
        """Run one competitive diffusion; returns the per-node ownership."""
        generator = as_rng(rng)
        probs = self._prepare(seed_sets)
        n = self.graph.num_nodes
        initiators = assign_initiators(n, seed_sets, self.tie_break, generator)
        if probs is None:
            owner, rounds, when = run_competitive_threshold(
                self.graph, initiators, self.claim_rule, generator
            )
        else:
            claims: list[tuple[np.ndarray, np.ndarray]] = []
            _, steps = run_competitive_cascades(
                self.graph, probs, [initiators], self.claim_rule, generator, claims
            )
            owner = np.full(n, -1, dtype=np.int64)
            when = np.zeros(n, dtype=np.int64)
            for wave, (keys, groups) in enumerate(claims):
                owner[keys] = groups
                when[keys] = wave
            rounds = int(steps[0])
        outcome = CompetitiveOutcome(owner, initiators, rounds, when)
        owners = [owner] if contracts.enabled() else None
        self._record(outcome.spreads()[None, :], np.array([rounds]), owners, [initiators])
        return outcome

    def spreads(
        self,
        seed_sets: Sequence[Sequence[int]],
        rounds: int,
        rng: RandomSource = None,
    ) -> np.ndarray:
        """Per-group spreads of *rounds* independent diffusions, ``(rounds, r)``.

        Each diffusion re-resolves seed collisions.  The cascade path draws
        every round's initiators first and then runs all rounds as one
        batched sweep (:func:`~repro.cascade.kernels.run_competitive_cascades`);
        the LT path runs :meth:`run` once per round.
        """
        generator = as_rng(rng)
        probs = self._prepare(seed_sets)
        if probs is None:
            return np.array(
                [self.run(seed_sets, generator).spreads() for _ in range(rounds)],
                dtype=np.int64,
            ).reshape(rounds, len(seed_sets))
        n = self.graph.num_nodes
        initiators = [
            assign_initiators(n, seed_sets, self.tie_break, generator)
            for _ in range(rounds)
        ]
        claims: list[tuple[np.ndarray, np.ndarray]] | None = (
            [] if contracts.enabled() else None
        )
        spreads, steps = run_competitive_cascades(
            self.graph, probs, initiators, self.claim_rule, generator, claims
        )
        owners = None if claims is None else _owners_from_claims(claims, rounds, n)
        self._record(spreads, steps, owners, initiators)
        return spreads

    def _record(
        self,
        spreads: np.ndarray,
        steps: np.ndarray,
        owners: Iterable[np.ndarray] | None,
        initiators: Sequence[Sequence[Sequence[int]]],
    ) -> None:
        """Metrics for a ``(rounds, r)`` batch of simulations.

        When *owners* (each simulation's owner array) is given, the
        ownership and spread contracts are checked for every simulation.
        """
        rounds, r = spreads.shape
        if owners is not None:
            for owner, inits, row in zip(owners, initiators, spreads):
                contracts.check_ownership(owner, inits, r)
                contracts.check_spreads(row, self.graph.num_nodes)
        _SIMULATIONS.inc(rounds)
        _ROUNDS.inc(int(steps.sum()))
        _NODES_ACTIVATED.inc(int(spreads.sum()))
        if rounds == 0:
            return
        values = spreads.astype(float)
        means = values.mean(axis=0)
        m2 = ((values - means) ** 2).sum(axis=0)
        lows, highs = values.min(axis=0), values.max(axis=0)
        for j in range(r):
            # One Chan merge per group instead of one observe per simulation.
            _group_spread_histogram(j).merge_state(
                {
                    "count": rounds,
                    "mean": float(means[j]),
                    "m2": float(m2[j]),
                    "min": float(lows[j]),
                    "max": float(highs[j]),
                }
            )


def _owners_from_claims(
    claims: list[tuple[np.ndarray, np.ndarray]], rounds: int, num_nodes: int
) -> Iterator[np.ndarray]:
    """Each simulation's owner array, rebuilt from a batched sweep's claims.

    Claims are concatenated in wave order and stably sorted by simulation,
    so a node claimed twice (a broken sweep) ends up with its later group,
    which the ownership contract then catches.
    """
    empty = np.empty(0, dtype=np.int64)
    keys = np.concatenate([empty, *(k for k, _ in claims)])
    groups = np.concatenate([empty, *(g for _, g in claims)])
    order = np.argsort(keys // num_nodes, kind="stable")
    keys, groups = keys[order], groups[order]
    bounds = np.searchsorted(keys // num_nodes, np.arange(rounds + 1))
    for i in range(rounds):
        owner = np.full(num_nodes, -1, dtype=np.int64)
        lo, hi = bounds[i], bounds[i + 1]
        owner[keys[lo:hi] - i * num_nodes] = groups[lo:hi]
        yield owner
