"""Monte-Carlo estimation of the expected-influence table Σ(Ψr, Φr).

This is lines 2–4 of Algorithm 1: for every r-order strategy profile
``(φ_t1, .., φ_tr)`` estimate the expected competitive influence of every
group.  Two sources of randomness are integrated over:

* **algorithm randomness** — each group draws its *own* seed set from its
  strategy (crucial: two groups playing the same greedy algorithm get
  overlapping but distinct seeds, which is what makes λ > 1/2 in Theorem 1);
* **diffusion randomness** — initiator assignment for contested seeds and
  the cascade itself.

``seed_draws`` controls how many independent seed-set draws are averaged;
``rounds`` is the total number of diffusion simulations per profile, split
as evenly as possible across the draws (the first ``rounds % seed_draws``
draws run one extra simulation, so all *rounds* simulations always run).

**Work sharing.**  Two reductions cut the simulation bill without changing
semantics:

* *Shared snapshot pools* — phase 1 hands one
  :class:`~repro.cascade.pools.SnapshotPool` per ``(draw, group)`` to every
  strategy of that group, so its snapshot strategies (MixGreedy on one or
  more models) sample live edges and compute NewGreedy initial gains once
  per group and model instead of once per strategy.  Pools are never shared *across* groups: identical strategies in
  different groups keep independently randomized seed sets (Theorem 1).
* *Symmetric-profile reduction* (``symmetry="reduce"``, or the
  ``REPRO_SYMMETRY`` env var) — the game is player-symmetric, so only the
  ``C(z+r-1, r)`` sorted-multiset profiles carry distinct information.  In
  reduce mode only canonical profiles are simulated, with the ``rounds``
  budget reallocated onto them (see :func:`symmetric_profile_plan`), and the
  remaining ``z^r − C(z+r-1, r)`` cells are filled by player permutation of
  the pooled estimates.  The resulting :meth:`PayoffTable.to_game` tensor is
  *exactly* player-symmetric.  Precedence: explicit ``symmetry=``
  argument > ``REPRO_SYMMETRY`` > ``"full"``.

Seed selection is fanned out too.  Heuristic selections, pool tokens and
selection-memo lookups run in the caller, in a fixed order, since they
consume the caller's generator.  A pooled selection takes only its pool's
token from it, so the pooled selections the memo misses run afterwards as
**one batch** of :class:`~repro.algorithms.base.SelectionJob` objects, one
per ``(draw, group)`` pool, each sampling its masks, computing the gains
and running CELF where the executor places it
(:func:`~repro.algorithms.base.select_with_pools`).  Their seeds, and the
caller's generator, are those of selecting one strategy at a time.

All profile simulations are independent, so they are fanned out as **one
batch** through the execution engine: once the seed sets are drawn, every
(draw, profile) *cell* gets its own spawned stream, and the cells are packed into
:class:`~repro.exec.jobs.CompetitiveJob` objects (:func:`pack_cells`: about
one job per worker, each job's claimed bitset capped at the graph's
out-CSR bytes).  Each job runs all of its cells as one frontier sweep.  A
cell draws every variate from its own stream, so the table is
bit-identical however the cells are packed, on every backend and at any
worker count, for a fixed master seed.  The per-draw estimates are pooled
exactly via :meth:`SpreadEstimate.__add__`.  Phase 1 is identical in both
symmetry modes, so full and reduce runs consume the caller's generator in
the same way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import select_with_pools
from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, TieBreakRule
from repro.cascade.kernels import out_csr_bytes
from repro.cascade.pools import SnapshotPool
from repro.cascade.simulate import SpreadEstimate
from repro.config import RunConfig
from repro.core.strategy import StrategySpace
from repro.errors import PayoffEstimationError
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import CompetitiveJob, ProfileCell
from repro.game.normal_form import NormalFormGame
from repro.graphs.digraph import DiGraph
from repro import contracts
from repro.obs.journal import RunJournal, current_journal
from repro.obs.log import get_logger
from repro.obs.metrics import counter
from repro.utils.rng import RandomSource, as_rng, spawn_seed_sequences
from repro.utils.validation import check_positive_int

_LOG = get_logger("core.payoff")

_PROFILES = counter("payoff.profiles_estimated")

#: Known symmetry modes, in documentation order.
SYMMETRY_MODES = ("full", "reduce")


def resolve_symmetry(symmetry: str | None = None) -> str:
    """Resolve the symmetry mode: explicit arg > ``REPRO_SYMMETRY`` > full."""
    resolved = symmetry or RunConfig.from_env().symmetry
    if resolved not in SYMMETRY_MODES:
        raise PayoffEstimationError(
            f"unknown symmetry mode {resolved!r}; known: {SYMMETRY_MODES}"
        )
    return resolved


def canonical_profile(profile: Sequence[int]) -> tuple[int, ...]:
    """The sorted-multiset representative of *profile*'s permutation class."""
    return tuple(sorted(int(a) for a in profile))


def profile_multiplicity(profile: Sequence[int]) -> int:
    """Number of distinct permutations of *profile* (multinomial count)."""
    counts = Counter(int(a) for a in profile)
    mult = math.factorial(len(tuple(profile)))
    for c in counts.values():
        mult //= math.factorial(c)
    return mult


def symmetric_profile_plan(
    z: int, r: int, rounds: int, seed_draws: int = 1
) -> list[tuple[tuple[int, ...], int, int]]:
    """Budget plan for ``symmetry="reduce"``: (profile, weight, rounds) triples.

    One triple per canonical profile (``C(z+r-1, r)`` of them).  *weight* is
    the number of ``z^r`` tensor cells the profile represents.  Its round
    budget is ``max(ceil(rounds/2), ceil(rounds·weight/r!), seed_draws)``:
    the middle term reallocates the freed budget proportionally to how many
    cells a canonical estimate serves (a cell filled from a ``weight``-way
    pooled estimate would otherwise over-sample relative to the full mode's
    per-cell ``rounds``), and the ``rounds/2`` floor caps the per-cell
    standard-error inflation of rare profiles at ``sqrt(2)``.  At
    ``z = r = 3`` the plan totals ``5.5·rounds`` simulated rounds against
    the full mode's ``27·rounds``.
    """
    check_positive_int(z, "z")
    check_positive_int(r, "r")
    check_positive_int(rounds, "rounds")
    check_positive_int(seed_draws, "seed_draws")
    total_perms = math.factorial(r)
    floor_rounds = math.ceil(rounds / 2)
    plan = []
    for profile in combinations_with_replacement(range(z), r):
        weight = profile_multiplicity(profile)
        alloc = max(floor_rounds, math.ceil(rounds * weight / total_perms), seed_draws)
        plan.append((profile, weight, alloc))
    return plan


def _canonical_assignment(
    profile: tuple[int, ...],
) -> tuple[tuple[int, ...], list[int]]:
    """Map *profile* onto its canonical representative, position by position.

    Returns ``(canonical, mapping)`` where player *i* of *profile* takes the
    estimate of player ``mapping[i]`` in the canonical profile.  Repeated
    actions are assigned in order of appearance, so the mapping is a
    well-defined permutation and the canonical profile maps to itself with
    the identity.
    """
    canonical = canonical_profile(profile)
    pos_by_action: dict[int, list[int]] = {}
    for j, action in enumerate(canonical):
        pos_by_action.setdefault(action, []).append(j)
    used = dict.fromkeys(pos_by_action, 0)
    mapping = []
    for action in profile:
        j = pos_by_action[action][used[action]]
        used[action] += 1
        mapping.append(j)
    return canonical, mapping


def _split_rounds(total: int, parts: int) -> list[int]:
    """Split *total* rounds as evenly as possible over *parts* draws.

    The first ``total % parts`` draws run one extra simulation, so the parts
    always sum to exactly *total*.
    """
    base, remainder = divmod(total, parts)
    return [base + (1 if draw < remainder else 0) for draw in range(parts)]


def pack_cells(rounds: Sequence[int], graph: DiGraph, workers: int) -> list[list[int]]:
    """Pack consecutive payoff cells into jobs; returns each job's cell indices.

    *rounds* are the cells' round counts.  Cells are spread over *workers*
    jobs by rounds: a job takes cells until it reaches its share of the
    total.  A job's claimed bitset (Σ rounds·n bits) is capped at the bytes
    of the graph's out-CSR arrays (indptr, indices and edge ids), which
    every job reads anyway, so a large graph's cells go into more, smaller
    jobs; a cell over the cap runs alone.  Packing never changes a result:
    every cell draws from its own stream.
    """
    cap = 8 * out_csr_bytes(graph) // max(graph.num_nodes, 1)
    share = sum(rounds) / max(workers, 1)
    packs: list[list[int]] = []
    load = 0
    for i, cell_rounds in enumerate(rounds):
        if packs and load < share and load + cell_rounds <= cap:
            packs[-1].append(i)
            load += cell_rounds
        else:
            packs.append([i])
            load = cell_rounds
    return packs


@dataclass(frozen=True)
class PayoffTable:
    """Estimated Σ(Ψr, Φr) with sampling metadata.

    ``estimates[profile][player]`` is a :class:`SpreadEstimate`;
    :meth:`to_game` converts the means into a :class:`NormalFormGame` for
    the equilibrium machinery.  Under ``symmetry="reduce"`` the dict still
    holds every ``z^r`` profile, but permutation-equivalent cells share the
    same pooled estimate objects.
    """

    space: StrategySpace
    num_groups: int
    k: int
    estimates: dict[tuple[int, ...], tuple[SpreadEstimate, ...]]
    rounds: int
    seed_draws: int
    symmetry: str = "full"

    def estimate(self, profile: Sequence[int], player: int) -> SpreadEstimate:
        """The spread estimate for *player* under *profile*."""
        return self.estimates[tuple(int(a) for a in profile)][player]

    def to_game(self) -> NormalFormGame:
        """Means of the estimates as a normal-form game tensor."""
        z, r = self.space.size, self.num_groups
        tensor = np.zeros((z,) * r + (r,))
        for profile, per_player in self.estimates.items():
            for i, est in enumerate(per_player):
                tensor[profile + (i,)] = est.mean
        return NormalFormGame(tensor, action_labels=self.space.labels)

    def max_stderr(self) -> float:
        """Largest standard error in the table — a noise diagnostic."""
        return max(
            est.stderr
            for per_player in self.estimates.values()
            for est in per_player
        )

    def rows(self) -> list[dict[str, object]]:
        """Row dicts (one per profile/player) for text-table rendering."""
        out = []
        for profile in sorted(self.estimates):
            labels = "-".join(self.space[a].name for a in profile)
            for i, est in enumerate(self.estimates[profile]):
                out.append(
                    {
                        "profile": labels,
                        "group": f"p{i + 1}",
                        "spread": est.mean,
                        "stderr": est.stderr,
                    }
                )
        return out


def estimate_payoff_table(
    graph: DiGraph,
    model: CascadeModel,
    space: StrategySpace,
    num_groups: int = 2,
    k: int = 30,
    rounds: int = 30,
    seed_draws: int = 1,
    rng: RandomSource = None,
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    journal: RunJournal | None = None,
    executor: Executor | None = None,
    symmetry: str | None = None,
) -> PayoffTable:
    """Estimate the full payoff table for *num_groups* groups over *space*.

    In the default ``symmetry="full"`` mode every profile in ``Φ^r`` is
    simulated; for games of GetReal scale (``z, r ≤ 3``) this is at most 27
    profiles.  Per profile, *rounds* competitive diffusions are run, split
    as evenly as possible over *seed_draws* independent seed-set draws per
    (group, strategy) pair — when ``rounds % seed_draws != 0`` the first
    ``rounds % seed_draws`` draws run one extra simulation, so exactly
    *rounds* simulations run per profile.  Under ``symmetry="reduce"``
    (argument > ``REPRO_SYMMETRY`` env var > full) only the canonical
    sorted-multiset profiles are simulated, with per-profile budgets from
    :func:`symmetric_profile_plan`, and the remaining cells are filled by
    player permutation — see the module docstring.  All cells are submitted
    to *executor* (or the env-configured default) as a single batch of
    packed jobs (:func:`pack_cells`).

    Phase 1 (seed selection) is identical in both modes: every strategy of
    every group draws its seed set per draw, against a per-(draw, group)
    shared :class:`~repro.cascade.pools.SnapshotPool`; the pooled
    selections run on *executor* as one batch of selection jobs.

    When *journal* is given (or a journal is attached via
    :func:`repro.obs.attach_journal`), a ``profile_start`` event is
    emitted when each simulated profile is first submitted and a
    ``profile_done`` event — per-player mean/stderr plus its wall-clock
    duration — once its estimates are pooled.  A job holding several cells
    splits its seconds over them by their share of its rounds, and a
    profile's duration sums its cells' shares.
    """
    r = check_positive_int(num_groups, "num_groups")
    check_positive_int(k, "k")
    check_positive_int(rounds, "rounds")
    check_positive_int(seed_draws, "seed_draws")
    if rounds < seed_draws:
        raise PayoffEstimationError(
            f"rounds={rounds} must be >= seed_draws={seed_draws}"
        )
    resolved_symmetry = resolve_symmetry(symmetry)
    generator = as_rng(rng)
    z = space.size
    sink = journal if journal is not None else current_journal()

    # The profile plan: which profiles are simulated, at what total budget.
    profiles = list(product(range(z), repeat=r))
    if resolved_symmetry == "reduce":
        simulated = [
            (profile, alloc)
            for profile, _weight, alloc in symmetric_profile_plan(
                z, r, rounds, seed_draws
            )
        ]
    else:
        simulated = [(profile, rounds) for profile in profiles]
    _LOG.info(
        "estimating payoff table: z=%d strategies, r=%d groups, "
        "%d/%d profiles simulated [%s], %d total rounds "
        "(k=%d, %d seed draws)",
        z,
        r,
        len(simulated),
        len(profiles),
        resolved_symmetry,
        sum(alloc for _p, alloc in simulated),
        k,
        seed_draws,
    )

    # Phase 1: draw seed sets.  S[draw][i][j] is what group i would seed
    # if it played strategy j in this draw.  These consume the caller's
    # generator in a fixed order, independent of the backend and of the
    # symmetry mode.  One snapshot pool per (draw, group) shares the
    # live-edge sample among that group's strategies; pools stay private to
    # their group so identical strategies across groups remain
    # independently randomized (Theorem 1).  The pooled selections run as
    # one batch of per-(draw, group) selection jobs.
    runner = resolve_executor(executor)
    pools = [SnapshotPool(graph) for _ in range(seed_draws * r)]
    selected = select_with_pools(graph, k, space.selectors, pools, generator, runner)
    all_seed_sets = [selected[draw * r : (draw + 1) * r] for draw in range(seed_draws)]

    # Phase 2: one cell per (draw, simulated profile), in deterministic
    # order, each drawing from its own spawned stream; the cells are packed
    # into jobs, so the packing changes no result.
    cell_keys: list[tuple[int, tuple[int, ...]]] = []
    cells: list[ProfileCell] = []
    streams = iter(spawn_seed_sequences(generator, seed_draws * len(simulated)))
    for draw in range(seed_draws):
        seed_sets = all_seed_sets[draw]
        for profile, profile_rounds in simulated:
            if sink is not None and draw == 0:
                labels = [space[a].name for a in profile]
                sink.profile_start(profile, labels)
            cells.append(
                ProfileCell(
                    seed_sets=tuple(
                        tuple(int(s) for s in seed_sets[i][profile[i]])
                        for i in range(r)
                    ),
                    rounds=_split_rounds(profile_rounds, seed_draws)[draw],
                    seed=next(streams),
                )
            )
            cell_keys.append((draw, profile))
    packs = pack_cells([cell.rounds for cell in cells], graph, runner.workers)
    jobs = [
        CompetitiveJob(
            graph=graph,
            model=model,
            cells=tuple(cells[i] for i in pack),
            tie_break=tie_break,
            claim_rule=claim_rule,
        )
        for pack in packs
    ]
    outcomes = runner.run(jobs, rng=generator)

    # Phase 3: pool the per-draw estimates per profile (exact — pooling
    # via ``__add__`` equals estimating from the concatenated samples).  A
    # job's seconds are split over its cells by their share of its rounds.
    accumulated: dict[tuple[int, ...], list[SpreadEstimate]] = {}
    durations: dict[tuple[int, ...], float] = {}
    for pack, outcome in zip(packs, outcomes):
        pack_rounds = sum(cells[i].rounds for i in pack)
        for slot, i in enumerate(pack):
            _draw, profile = cell_keys[i]
            ests = outcome.estimates[slot * r : (slot + 1) * r]
            share = outcome.job_seconds * cells[i].rounds / pack_rounds
            durations[profile] = durations.get(profile, 0.0) + share
            if profile in accumulated:
                accumulated[profile] = [
                    prev + new for prev, new in zip(accumulated[profile], ests)
                ]
            else:
                accumulated[profile] = list(ests)

    for profile, _profile_rounds in simulated:
        pooled = accumulated[profile]
        labels = [space[a].name for a in profile]
        # Once per pooled profile (not per (draw, profile) job), so the
        # counter reports the number of *simulated* profiles regardless of
        # seed_draws.
        _PROFILES.inc()
        if contracts.enabled():
            contracts.check_spreads(
                [est.mean for est in pooled], graph.num_nodes, "mean spreads"
            )
        _LOG.debug(
            "profile %s done: means=%s (%.3fs)",
            "-".join(labels),
            [round(est.mean, 2) for est in pooled],
            durations[profile],
        )
        if sink is not None:
            sink.profile_done(
                profile,
                labels,
                players=[
                    {
                        "group": i,
                        "mean": est.mean,
                        "stderr": est.stderr,
                        "std": est.std,
                        "samples": est.samples,
                    }
                    for i, est in enumerate(pooled)
                ],
                duration_seconds=durations[profile],
            )

    # Phase 4 (reduce mode only): fill the non-canonical cells by player
    # permutation of the pooled canonical estimates.  The per-player
    # assignment is order-preserving, so the filled tensor is exactly
    # player-symmetric and permutation-consistent.
    if resolved_symmetry == "reduce":
        for profile in profiles:
            if profile in accumulated:
                continue
            canonical, mapping = _canonical_assignment(profile)
            source = accumulated[canonical]
            accumulated[profile] = [source[j] for j in mapping]

    estimates = {
        profile: tuple(ests) for profile, ests in accumulated.items()
    }
    return PayoffTable(
        space=space,
        num_groups=r,
        k=k,
        estimates=estimates,
        rounds=rounds,
        seed_draws=seed_draws,
        symmetry=resolved_symmetry,
    )
