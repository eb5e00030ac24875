"""Follower best-response seed selection (Carnes et al., ICEC'07 setting).

The pre-GetReal competitive-IM literature (Carnes et al.; Bharathi et al.)
assumes the *follower* knows the rival's already-chosen seeds and greedily
maximizes its own spread under the competitive dynamics — the "unrealistic
assumption" the paper's introduction criticizes, since platforms do not
expose rivals' seed sets.

It is implemented here for two reasons:

* as the strongest possible baseline — a follower with perfect information
  upper-bounds what any realistic strategy can achieve, so the gap to the
  GetReal equilibrium quantifies the *value of the information the paper
  argues one cannot have* (see the ``follower_information`` scenario,
  ``benchmarks/matrices/ext_follower.json``);
* as the building block for best-response dynamics over seed sets.

The greedy step uses lazy (CELF-style) evaluation of competitive marginal
gains, each estimated by Monte-Carlo runs of the shared competitive
engine; monotonicity of the follower objective (Carnes et al. prove
submodularity in their models) makes lazy evaluation safe up to MC noise.

Candidate evaluations are expressed as
:class:`~repro.exec.jobs.CompetitiveJob` objects carrying the common
random-number base, so the initial sweep over the whole candidate pool —
the dominant cost — fans out through the execution engine as one batch,
while the inherently sequential CELF re-evaluations run the same jobs
in-process.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, TieBreakRule
from repro.errors import SeedSelectionError
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import CompetitiveJob
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int

#: Stride between the paired random streams of successive follower rounds.
FOLLOWER_CRN_STEP = 7919


class FollowerBestResponse(SeedSelector):
    """Greedy follower: maximize own spread given the rival's known seeds.

    Parameters
    ----------
    model:
        Cascade model shared with the rival.
    rival_seeds:
        The seeds the rival has already committed to (the information
        assumption of the follower literature).
    rounds:
        Monte-Carlo simulations per marginal-gain estimate.
    candidate_pool:
        Evaluate only the top-``candidate_pool`` nodes by degree (plus the
        rival's seeds' neighbours are implicitly covered by degree rank).
        Exhaustive evaluation is O(n · k · rounds) competitive simulations;
        the pool keeps the baseline tractable without changing outcomes on
        heavy-tailed graphs, where high-degree nodes dominate the answer.
    executor:
        Execution engine for the batched candidate sweep (defaults to the
        env-configured process-wide executor).
    """

    name = "follower"

    def __init__(
        self,
        model: CascadeModel,
        rival_seeds: Sequence[int],
        rounds: int = 10,
        candidate_pool: int = 100,
        tie_break: TieBreakRule = TieBreakRule.UNIFORM,
        claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
        executor: Executor | None = None,
    ) -> None:
        self.model = model
        self.rival_seeds = [int(s) for s in rival_seeds]
        if not self.rival_seeds:
            raise SeedSelectionError("follower needs non-empty rival seeds")
        self.rounds = check_positive_int(rounds, "rounds")
        self.candidate_pool = check_positive_int(candidate_pool, "candidate_pool")
        self.tie_break = tie_break
        self.claim_rule = claim_rule
        self.executor = executor

    def _spread_job(
        self, graph: DiGraph, seeds: Sequence[int], crn_base: int
    ) -> CompetitiveJob:
        """The follower-vs-rival evaluation of *seeds* as a CRN-paired job.

        Every candidate evaluation within one ``select`` call replays the
        same *rounds* random streams (seeded from ``crn_base``), so
        marginal-gain comparisons are paired: candidate A beats candidate B
        because of the seeds, not because of luckier coin flips.  Without
        this, greedy comparisons at feasible round counts are dominated by
        Monte-Carlo noise.
        """
        return CompetitiveJob(
            graph=graph,
            model=self.model,
            seed_sets=(tuple(self.rival_seeds), tuple(int(s) for s in seeds)),
            rounds=self.rounds,
            tie_break=self.tie_break,
            claim_rule=self.claim_rule,
            crn_base=crn_base,
            crn_step=FOLLOWER_CRN_STEP,
        )

    def _follower_spread(
        self, graph: DiGraph, seeds: list[int], crn_base: int
    ) -> float:
        """In-process evaluation for the sequential CELF refinements."""
        job = self._spread_job(graph, seeds, crn_base)
        return job.run(as_rng(crn_base))[1].mean

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        k = self._check_budget(graph, k)
        for s in self.rival_seeds:
            if not 0 <= s < graph.num_nodes:
                raise SeedSelectionError(
                    f"rival seed {s} out of range [0, {graph.num_nodes})"
                )
        generator = as_rng(rng)
        crn_base = int(generator.integers(0, 2**62))

        degrees = graph.out_degrees().astype(float)
        degrees += generator.random(graph.num_nodes) * 1e-9
        pool_size = min(self.candidate_pool, graph.num_nodes)
        candidates = np.argsort(-degrees)[:pool_size].tolist()
        if len(candidates) < k:
            raise SeedSelectionError(
                f"candidate_pool={pool_size} smaller than budget k={k}"
            )

        # Batched initial sweep: one CRN-paired job per singleton candidate.
        # The jobs ignore their spawned generators (CRN pins every stream),
        # so the batch is deterministic on any backend.
        jobs = [
            self._spread_job(graph, [int(v)], crn_base) for v in candidates
        ]
        results = resolve_executor(self.executor).estimates(jobs, rng=generator)

        # CELF heap over competitive marginal gains (paired by CRN).
        seeds: list[int] = []
        heap: list[tuple[float, int, int]] = []
        current_value = 0.0
        for v, estimates in zip(candidates, results):
            heapq.heappush(heap, (-estimates[1].mean, int(v), 0))

        iteration = 0
        while len(seeds) < k and heap:
            neg_gain, v, stamp = heapq.heappop(heap)
            if v in seeds:
                continue
            if stamp == iteration:
                seeds.append(v)
                current_value = self._follower_spread(graph, seeds, crn_base)
                iteration += 1
            else:
                value_with = self._follower_spread(graph, seeds + [v], crn_base)
                heapq.heappush(heap, (-(value_with - current_value), v, iteration))
        if len(seeds) < k:
            raise SeedSelectionError("ran out of candidates before reaching k")
        return seeds

    def __repr__(self) -> str:
        return (
            f"FollowerBestResponse(rival={len(self.rival_seeds)} seeds, "
            f"rounds={self.rounds})"
        )
