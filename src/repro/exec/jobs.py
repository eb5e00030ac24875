"""Simulation job types: the unit of work the execution engine schedules.

A *job* is a self-contained, picklable description of a batch-able piece of
Monte-Carlo work: everything it needs (graph, model, seed sets, round
count) travels with it, and :meth:`~SimulationJob.run` produces a tuple of
:class:`~repro.cascade.estimate.SpreadEstimate` — one per quantity the job
estimates.  Self-containment is what lets the same job object execute
unchanged on the serial and process backends.

**Graph payloads.**  A job's ``graph`` is a
:class:`~repro.graphs.digraph.DiGraph`.  One opened from a
:class:`~repro.graphs.store.GraphStore` pickles as its O(1)
:class:`~repro.graphs.store.GraphRef`, so on the process backend its jobs
cost hundreds of bytes where the raw CSR arrays would cost O(n+m) — the
difference between hep-scale and wiki-Talk-scale batches.

:class:`CompetitiveJob` covers the σ(·) quantities of the paper: the
per-group spreads ``(σ1, .., σr)`` of one or more profile cells
(:class:`ProfileCell`) under the competitive engine, cell-major.  The
non-competitive spread ``σ0(S)`` is the one-cell, one-group case (what
:func:`repro.cascade.simulate.estimate_spread` submits).

A job defined elsewhere, :class:`~repro.algorithms.base.SelectionJob`,
runs a snapshot pool's seed selections where the executor places it and
returns one :class:`SelectedSeeds`.

A cell of a ``CompetitiveJob`` may carry its **own stream** (``seed``):
it then draws every variate from it, so its estimates do not depend on
how cells are packed into jobs or on the job's spawned generator.  Under
**common random numbers** (``crn_base``) round *i* of every cell draws
from the stream seeded ``crn_base + crn_step·i`` instead, so candidate
comparisons inside greedy loops (follower best response, blocker
selection) are paired across jobs.  Either way all of a job's rounds run
as one frontier sweep (:meth:`CompetitiveDiffusion.sweep`).

Other modules may define their own job types — anything satisfying the
:class:`SimulationJob` protocol (and picklable, for the process backend)
can be submitted to an :class:`~repro.exec.executor.Executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, TypeVar, runtime_checkable

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion, TieBreakRule
from repro.cascade.estimate import SpreadEstimate
from repro.graphs.digraph import DiGraph
from repro.utils.rng import as_rng

#: Modulus keeping derived common-random-number seeds inside numpy's range.
_SEED_MODULUS = 2**63 - 1


@dataclass(frozen=True)
class SelectedSeeds:
    """A selection job's seed lists, one per selector, in greedy order."""

    seeds: tuple[tuple[int, ...], ...]


#: Result of a :class:`SimulationJob`: estimates or a selection job's seeds.
JobResult = SpreadEstimate | SelectedSeeds
ResultT_co = TypeVar("ResultT_co", bound=JobResult, covariant=True)


@runtime_checkable
class SimulationJob(Protocol[ResultT_co]):
    """Anything the execution engine can schedule.

    ``run`` receives a dedicated :class:`numpy.random.Generator` (spawned
    from the batch's root seed sequence — see
    :func:`repro.utils.rng.spawn_seed_sequences`) and returns one
    :class:`SpreadEstimate` per estimated quantity, or one
    :class:`SelectedSeeds`.  ``num_nodes`` bounds every estimate's mean for
    the opt-in runtime contracts; return ``None`` when no graph-derived
    bound applies.
    """

    def run(self, generator: np.random.Generator) -> tuple[ResultT_co, ...]:
        """Execute the job using *generator* for all randomness."""
        ...

    @property
    def num_nodes(self) -> int | None:
        """Upper bound for every estimate's mean, or ``None``."""
        ...


@dataclass(frozen=True)
class ProfileCell:
    """One profile's simulations: its seed sets, its rounds and its stream.

    ``seed`` seeds the cell's own generator; ``None`` draws from the job's
    spawned generator instead.
    """

    seed_sets: tuple[tuple[int, ...], ...]
    rounds: int
    seed: np.random.SeedSequence | int | None = None


@dataclass(frozen=True)
class CompetitiveJob:
    """Estimate per-group competitive spreads for one or more profile cells.

    Each of a cell's ``rounds`` simulations independently re-resolves seed
    collisions (initiator assignment) and re-runs the diffusion, matching
    the paper's expectation over both sources of randomness.  All cells
    run as one sweep (:meth:`CompetitiveDiffusion.sweep`), and :meth:`run`
    returns ``r`` estimates per cell, cell-major.

    When ``crn_base`` is set, round *i* of every cell draws from a fresh
    stream seeded ``(crn_base + crn_step·i) mod 2^63-1`` — the
    common-random-numbers pairing used by the greedy candidate loops.
    """

    graph: DiGraph
    model: CascadeModel
    cells: tuple[ProfileCell, ...]
    tie_break: TieBreakRule = TieBreakRule.UNIFORM
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL
    crn_base: int | None = None
    crn_step: int = 7919

    @property
    def num_nodes(self) -> int | None:
        return self.graph.num_nodes

    def run(self, generator: np.random.Generator) -> tuple[SpreadEstimate, ...]:
        engine = CompetitiveDiffusion(self.graph, self.model, self.tie_break, self.claim_rule)
        streams = []
        for cell in self.cells:
            incidence = engine.incidence(cell.seed_sets)
            if self.crn_base is not None:
                streams.extend(
                    (incidence, 1, as_rng((self.crn_base + self.crn_step * i) % _SEED_MODULUS))
                    for i in range(cell.rounds)
                )
            else:
                own = generator if cell.seed is None else as_rng(cell.seed)
                streams.append((incidence, cell.rounds, own))
        values = engine.sweep(streams).astype(float)
        estimates: list[SpreadEstimate] = []
        start = 0
        for cell in self.cells:
            block = values[start : start + cell.rounds]
            start += cell.rounds
            estimates.extend(
                SpreadEstimate.from_values(block[:, j]) for j in range(block.shape[1])
            )
        return tuple(estimates)
