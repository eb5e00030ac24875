"""Monte-Carlo spread estimation, single-group and competitive.

These estimators produce the ``σ(·)`` quantities of the paper:
:func:`estimate_spread` gives the singleton spread ``σ0(S)`` (no
competition), and :func:`estimate_competitive_spread` gives the vector
``(σ1(..), .., σr(..))`` for a full profile of seed sets diffusing
simultaneously.  Both return a :class:`SpreadEstimate` carrying the sample
standard error, which the GetReal layer uses to judge whether a pure-NE
comparison is statistically meaningful.

Both functions are thin wrappers: they describe the work as a single
one-cell :class:`~repro.exec.jobs.CompetitiveJob` (of one group for
``σ0``, the classical spread being the one-group competitive diffusion)
and submit it through an
:class:`~repro.exec.executor.Executor` (the env-configured process default
when none is passed).  Callers that need many estimates at once — the
payoff table, the figure sweeps, greedy candidate scoring — should build
the jobs themselves and submit them as **one batch** so the backend can
run them concurrently; see ``docs/execution.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, TieBreakRule
from repro.cascade.estimate import SpreadEstimate
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import CompetitiveJob, ProfileCell
from repro.graphs.digraph import DiGraph
from repro import contracts
from repro.obs.log import get_logger
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int

_LOG = get_logger("cascade.simulate")

__all__ = [
    "SpreadEstimate",
    "estimate_competitive_spread",
    "estimate_spread",
]


def estimate_spread(
    graph: DiGraph,
    model: CascadeModel,
    seeds: Sequence[int],
    rounds: int = 100,
    rng: RandomSource = None,
    executor: Executor | None = None,
) -> SpreadEstimate:
    """Estimate the non-competitive spread ``σ0(seeds)`` by *rounds* simulations.

    The one-group case of :func:`estimate_competitive_spread`: a single
    group has no seed collisions and claims every node it activates.
    """
    (estimate,) = estimate_competitive_spread(
        graph, model, [seeds], rounds, rng, executor=executor
    )
    if contracts.enabled():
        contracts.check_spread_estimate(estimate.mean, graph.num_nodes)
    return estimate


def estimate_competitive_spread(
    graph: DiGraph,
    model: CascadeModel,
    seed_sets: Sequence[Sequence[int]],
    rounds: int = 100,
    rng: RandomSource = None,
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    executor: Executor | None = None,
) -> list[SpreadEstimate]:
    """Estimate per-group competitive spreads for a full seed-set profile.

    Each of the *rounds* simulations independently re-resolves seed
    collisions (initiator assignment) and re-runs the diffusion, matching the
    paper's expectation over both sources of randomness.
    """
    check_positive_int(rounds, "rounds")
    cell = ProfileCell(
        seed_sets=tuple(tuple(int(s) for s in seeds) for seeds in seed_sets),
        rounds=rounds,
    )
    job = CompetitiveJob(
        graph=graph,
        model=model,
        cells=(cell,),
        tie_break=tie_break,
        claim_rule=claim_rule,
    )
    estimates = list(resolve_executor(executor).estimates([job], rng=rng)[0])
    _LOG.debug("competitive spread: %d groups x %d rounds", len(seed_sets), rounds)
    if contracts.enabled():
        # Per-profile invariant: the group means partition at most |V| nodes.
        contracts.check_spreads(
            [est.mean for est in estimates], graph.num_nodes, "mean spreads"
        )
    return estimates
