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
of the accumulated in-neighbour weight.  With one group neither path draws
a claim, so a one-group run *is* the classical IC/WC/LT diffusion: the
engine is also the single-group simulator (``run([seeds])``, active where
``owner >= 0``).

Seed collisions are resolved over arrays: :class:`SeedIncidence` builds a
profile's seed → selecting-groups incidence once and draws every round's
contested-seed winners as one ``(rounds, seeds)`` array.  The inner loops
live in :mod:`repro.cascade.kernels`.  :meth:`~CompetitiveDiffusion.run`
returns one diffusion's full per-node outcome;
:meth:`~CompetitiveDiffusion.sweep` returns only the per-group spreads of
many diffusions, of one or more profiles each drawing from its own
stream, and runs the cascade path's rounds as one batched frontier sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import (
    ClaimRule,
    run_competitive_cascades,
    run_competitive_threshold,
    sorted_unique,
)
from repro.cascade.lt import LinearThreshold
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro import contracts
from repro.obs.metrics import counter
from repro.utils.rng import RandomSource, as_rng

__all__ = [
    "ClaimRule",
    "CompetitiveDiffusion",
    "CompetitiveOutcome",
    "TieBreakRule",
    "assign_initiators",
]

# Cached instrument handles: incremented once per simulation (or round), so
# the per-simulation overhead is a handful of attribute updates.
_SIMULATIONS = counter("cascade.simulations")
_NODES_ACTIVATED = counter("cascade.nodes_activated")


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


class SeedIncidence:
    """A profile's seed → selecting-groups incidence, built once per profile.

    Implements the bitmap construction of Section 3.2 over arrays: a seed
    selected only by group *i* always initiates for *i*; a seed selected by
    groups ``{j1..js, i}`` initiates for exactly one of them, drawn per
    round (uniformly under the paper's rule).  The incidence is fixed for a
    profile, so only the contested seeds' winners are drawn, all rounds at
    once (:meth:`draw`).  Duplicate seeds within a group count once; an
    out-of-range seed raises :class:`~repro.errors.CascadeError`.
    """

    def __init__(
        self,
        num_nodes: int,
        seed_sets: Sequence[Sequence[int]],
        tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    ) -> None:
        r = len(seed_sets)
        if r == 0:
            raise CascadeError("at least one seed set is required")
        self.num_nodes = num_nodes
        self.num_groups = r
        sizes = [len(seeds) for seeds in seed_sets]
        nodes = np.fromiter(
            (int(s) for seeds in seed_sets for s in seeds), dtype=np.int64, count=sum(sizes)
        )
        bad = (nodes < 0) | (nodes >= num_nodes)
        if bad.any():
            raise CascadeError(
                f"seed {int(nodes[bad][0])} out of range [0, {num_nodes})"
            )
        # Distinct (node, group) pairs, node-major with groups ascending.
        pairs = sorted_unique(nodes * r + np.arange(r, dtype=np.int64).repeat(sizes))
        node, group = pairs // r, pairs % r
        head = np.ones(node.size, dtype=bool)
        np.not_equal(node[1:], node[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        selectors = np.diff(np.append(starts, node.size))
        alone = selectors == 1
        self.exclusive_nodes = node[starts[alone]]
        self.exclusive_groups = group[starts[alone]]
        self.contested_nodes = node[starts[~alone]]
        # A (contested, width) table of selecting groups and the cumulative
        # tie-break weights over them; padding repeats the last cumulative
        # weight, so an inverse-CDF point never lands on it.
        starts, selectors = starts[~alone], selectors[~alone]
        width = int(selectors.max()) if selectors.size else 0
        column = np.arange(width, dtype=np.int64)
        real = column < selectors[:, None]
        at = np.where(real, starts[:, None] + column, 0)
        self._groups = np.where(real, group[at], 0)
        weights = real.astype(float)
        if tie_break is TieBreakRule.PROPORTIONAL:
            exclusive = np.bincount(self.exclusive_groups, minlength=r).astype(float)
            share = np.where(real, exclusive[self._groups], 0.0)
            # Where no selecting group holds an exclusive seed, stay uniform.
            some = share.sum(axis=1) > 0
            weights[some] = share[some]
        self._cum = np.cumsum(weights, axis=1)

    def draw(
        self, rounds: int, generator: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Initiators of *rounds* simulations as flat ``(rows, nodes, groups)``.

        Row-major: simulation *i*'s initiators are the entries whose row is
        *i*.  One uniform per (round, contested seed) picks its winner by
        inverse CDF over the tie-break weights; exclusive seeds draw
        nothing.
        """
        contested = self.contested_nodes.size
        winners = np.empty((rounds, contested), dtype=np.int64)
        if contested:
            total = self._cum[:, -1]
            points = generator.random((rounds, contested)) * total
            pick = (points[:, :, None] >= self._cum).sum(axis=2)
            winners = self._groups[np.arange(contested), pick]
        nodes = np.concatenate([self.exclusive_nodes, self.contested_nodes])
        groups = np.concatenate(
            [np.broadcast_to(self.exclusive_groups, (rounds, self.exclusive_nodes.size)), winners],
            axis=1,
        )
        rows = np.arange(rounds, dtype=np.int64).repeat(nodes.size)
        return rows, np.tile(nodes, rounds), groups.ravel()


def assign_initiators(
    num_nodes: int,
    seed_sets: Sequence[Sequence[int]],
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    rng: RandomSource = None,
) -> list[list[int]]:
    """Resolve seed collisions once: overlapping seed sets to disjoint initiator sets.

    One round of :meth:`SeedIncidence.draw`, as per-group node lists.
    """
    if not seed_sets:
        return []
    _, nodes, groups = SeedIncidence(num_nodes, seed_sets, tie_break).draw(1, as_rng(rng))
    return [nodes[groups == j].tolist() for j in range(len(seed_sets))]


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

    def _prepare(self) -> np.ndarray | None:
        """The cascade path's edge probabilities; ``None`` means the threshold path.

        Probabilities are checked when contracts are enabled.
        """
        if isinstance(self.model, LinearThreshold):
            return None
        probs = self._probs()
        if contracts.enabled():
            contracts.check_probabilities(probs, "edge probabilities")
        return probs

    def incidence(self, seed_sets: Sequence[Sequence[int]]) -> SeedIncidence:
        """The seed → selecting-groups incidence of one profile under this engine."""
        return SeedIncidence(self.graph.num_nodes, seed_sets, self.tie_break)

    def run(
        self,
        seed_sets: Sequence[Sequence[int]],
        rng: RandomSource = None,
    ) -> CompetitiveOutcome:
        """Run one competitive diffusion; returns the per-node ownership."""
        return self._run_one(self.incidence(seed_sets), as_rng(rng))

    def _run_one(
        self, incidence: SeedIncidence, generator: np.random.Generator
    ) -> CompetitiveOutcome:
        probs = self._prepare()
        n, r = self.graph.num_nodes, incidence.num_groups
        rows, nodes, groups = incidence.draw(1, generator)
        initiators = [nodes[groups == j].tolist() for j in range(r)]
        if probs is None:
            owner, rounds, when = run_competitive_threshold(
                self.graph, initiators, self.claim_rule, generator
            )
        else:
            claims: list[tuple[np.ndarray, np.ndarray]] = []
            _, steps = run_competitive_cascades(
                self.graph,
                probs,
                rows,
                nodes,
                groups,
                r,
                [(1, generator)],
                self.claim_rule,
                claims,
            )
            owner = np.full(n, -1, dtype=np.int64)
            when = np.zeros(n, dtype=np.int64)
            for wave, (wave_keys, wave_groups) in enumerate(claims):
                owner[wave_keys] = wave_groups
                when[wave_keys] = wave
            rounds = int(steps[0])
        outcome = CompetitiveOutcome(owner, initiators, rounds, when)
        owners = [owner] if contracts.enabled() else None
        self._record(outcome.spreads()[None, :], owners, [initiators])
        return outcome

    def spreads(
        self,
        seed_sets: Sequence[Sequence[int]],
        rounds: int,
        rng: RandomSource = None,
    ) -> np.ndarray:
        """Per-group spreads of *rounds* independent diffusions, ``(rounds, r)``.

        Each diffusion re-resolves seed collisions; see :meth:`sweep`.
        """
        return self.sweep([(self.incidence(seed_sets), rounds, as_rng(rng))])

    def sweep(
        self, streams: Sequence[tuple[SeedIncidence, int, np.random.Generator]]
    ) -> np.ndarray:
        """Per-group spreads of many diffusions, ``(Σ rounds, r)``, stream-major.

        Each stream ``(incidence, rounds, generator)`` runs *rounds*
        diffusions of one profile and draws all of their variates, contested
        initiators first, from its own *generator*.  On the cascade path
        every stream's rounds run as one frontier sweep
        (:func:`~repro.cascade.kernels.run_competitive_cascades`), so a
        stream's spreads do not depend on the streams it is swept with; the
        LT path runs :meth:`run` once per round.  All streams must have the
        same number of groups.
        """
        if not streams:
            raise CascadeError("at least one stream is required")
        r = streams[0][0].num_groups
        if any(incidence.num_groups != r for incidence, _, _ in streams):
            raise CascadeError("every swept profile must have the same number of groups")
        probs = self._prepare()
        if probs is None:
            rows = [
                self._run_one(incidence, generator).spreads()
                for incidence, rounds, generator in streams
                for _ in range(rounds)
            ]
            return np.array(rows, dtype=np.int64).reshape(len(rows), r)
        rows, nodes, groups = [], [], []
        offset = 0
        for incidence, rounds, generator in streams:
            stream_rows, stream_nodes, stream_groups = incidence.draw(rounds, generator)
            rows.append(stream_rows + offset)
            nodes.append(stream_nodes)
            groups.append(stream_groups)
            offset += rounds
        claims: list[tuple[np.ndarray, np.ndarray]] | None = (
            [] if contracts.enabled() else None
        )
        spreads, _ = run_competitive_cascades(
            self.graph,
            probs,
            np.concatenate(rows),
            np.concatenate(nodes),
            np.concatenate(groups),
            r,
            [(rounds, generator) for _, rounds, generator in streams],
            self.claim_rule,
            claims,
        )
        if claims is None:
            self._record(spreads, None, None)
        else:
            owners, initiators = _outcomes_from_claims(claims, offset, self.graph.num_nodes, r)
            self._record(spreads, owners, initiators)
        return spreads

    def _record(
        self,
        spreads: np.ndarray,
        owners: Sequence[np.ndarray] | None,
        initiators: Sequence[Sequence[Sequence[int]]] | None,
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
        _NODES_ACTIVATED.inc(int(spreads.sum()))


def _outcomes_from_claims(
    claims: list[tuple[np.ndarray, np.ndarray]], rounds: int, num_nodes: int, r: int
) -> tuple[list[np.ndarray], list[list[list[int]]]]:
    """Each simulation's owner array and initiators, rebuilt from a sweep's claims.

    Claims are concatenated in wave order and stably sorted by simulation,
    so a node claimed twice (a broken sweep) ends up with its later group,
    which the ownership contract then catches.  The first wave holds the
    initiators.
    """
    empty = np.empty(0, dtype=np.int64)
    first_keys, first_groups = claims[0] if claims else (empty, empty)
    keys = np.concatenate([empty, *(k for k, _ in claims)])
    groups = np.concatenate([empty, *(g for _, g in claims)])
    order = np.argsort(keys // num_nodes, kind="stable")
    keys, groups = keys[order], groups[order]
    bounds = np.searchsorted(keys // num_nodes, np.arange(rounds + 1))
    first_rows = first_keys // num_nodes
    owners, initiators = [], []
    for i in range(rounds):
        owner = np.full(num_nodes, -1, dtype=np.int64)
        lo, hi = bounds[i], bounds[i + 1]
        owner[keys[lo:hi] - i * num_nodes] = groups[lo:hi]
        owners.append(owner)
        mine = first_rows == i
        nodes, mine_groups = first_keys[mine] - i * num_nodes, first_groups[mine]
        initiators.append([nodes[mine_groups == j].tolist() for j in range(r)])
    return owners, initiators
