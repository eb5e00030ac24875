"""Incremental recomputation on dynamic graphs: the warm-path session.

A cold influence-maximization answer on a million-node graph pays three
large bills: sampling ``R`` live-edge snapshots, computing exact per-node
reach sizes on each (the NewGreedy matrix), and running CELF lazy greedy.
When the graph then changes by a handful of edges, almost none of that work
is stale — and :class:`IncrementalSession` is the machinery that proves it:

* **Stable snapshots** — the session's :class:`~repro.cascade.pools.SnapshotPool`
  runs in *stable* mode (per-edge hash draws), so after
  :meth:`~IncrementalSession.apply_delta` the patched pool reproduces every
  clean structural shard bit for bit and only dirty shards are resampled
  (served through the shard memo — the warm-pool splice).
* **Blast-radius reach update** — per snapshot, the only nodes whose reach
  size can change are those that can reach a *changed* edge's source in the
  old or new live graph (:meth:`~repro.graphs.digraph.DiGraph.reverse_reachable_from`);
  the session recomputes exactly those rows of the R×n reach matrix and
  falls back to a full per-snapshot recompute when the blast radius exceeds
  ``recompute_fraction`` of the graph.
* **CELF seed-set repair** — :meth:`~IncrementalSession.reselect` re-validates
  the cached picks with :func:`repro.algorithms.greedy.repair_celf`, re-runs
  lazy greedy only from the first invalidated depth, and falls back to a
  full reselection when the repair budget is exhausted.  Either way the
  returned seeds are bit-identical to a cold selection on the patched graph.

``REPRO_INCREMENTAL`` governs the two entry points: the session honours it
as a kill-switch (:func:`incremental_enabled`, default **on** — set ``0`` /
``off`` to force cold recomputation everywhere), while CLI/driver code uses
:func:`incremental_requested` (default **off** — set ``1`` / ``on`` to opt
runs in).  Both read the same variable so one export flips the whole stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.algorithms.greedy import CelfTrace, repair_celf, run_celf
from repro.cache import DeltaInvalidation, invalidate_for_delta
from repro.cascade.base import CascadeModel
from repro.cascade.pools import SnapshotPool
from repro.cascade.reachability import all_reach_sizes
from repro.cascade.snapshots import SnapshotOracle, stack_masks
from repro.errors import GraphError
from repro.graphs.delta import AppliedDelta, EdgeDelta, merge_delta
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.utils.bitset import lookup_bits
from repro.utils.rng import RandomSource, as_rng
from repro.utils.shards import DEFAULT_NUM_SHARDS

__all__ = [
    "INCREMENTAL_ENV_VAR",
    "DeltaOutcome",
    "IncrementalSession",
    "ReselectOutcome",
    "incremental_enabled",
    "incremental_requested",
]

#: Environment variable switching incremental recomputation.  Unset means
#: "enabled but not requested": libraries keep their warm paths available
#: (:func:`incremental_enabled`), drivers don't turn them on uninvited
#: (:func:`incremental_requested`).
INCREMENTAL_ENV_VAR = "REPRO_INCREMENTAL"

_FALSY = frozenset({"0", "off", "false", "no"})
_TRUTHY = frozenset({"1", "on", "true", "yes"})

_REPAIR_DEPTH = histogram("incremental.repair_depth")
_REPAIRS = counter("incremental.repairs")
_FALLBACKS = counter("incremental.fallbacks")


def incremental_enabled() -> bool:
    """Kill-switch view of ``REPRO_INCREMENTAL``: on unless explicitly off.

    A session with incremental disabled recomputes everything cold on every
    delta — the escape hatch if a warm-path bug is ever suspected in
    production, since cold and warm paths are contractually bit-identical.
    """
    raw = os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower()
    return raw not in _FALSY


def incremental_requested() -> bool:
    """Opt-in view of ``REPRO_INCREMENTAL``: off unless explicitly on.

    Drivers (CLI, experiment runner) consult this before building an
    :class:`IncrementalSession` for a run that didn't ask for one.
    """
    raw = os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower()
    return raw in _TRUTHY


@dataclass(frozen=True)
class DeltaOutcome:
    """What :meth:`IncrementalSession.apply_delta` did.

    ``affected_counts[t]`` is the number of reach-matrix rows recomputed for
    snapshot *t*; ``full_recompute[t]`` marks snapshots whose blast radius
    exceeded the threshold and were recomputed wholesale.
    """

    applied: AppliedDelta
    invalidation: DeltaInvalidation
    affected_counts: tuple[int, ...]
    full_recompute: tuple[bool, ...]

    @property
    def incremental(self) -> bool:
        """Whether any snapshot took the blast-radius path."""
        return any(not full for full in self.full_recompute)


@dataclass(frozen=True)
class ReselectOutcome:
    """What :meth:`IncrementalSession.reselect` did.

    ``repaired`` is False when the seed set was recomputed cold (no cached
    trace, incremental disabled, or budget ``fallback``); the seeds are the
    same either way — only the work differs.
    """

    seeds: tuple[int, ...]
    repair_depth: int
    evaluations: int
    fallback: bool
    repaired: bool


class IncrementalSession:
    """Cold-select once, then answer edge deltas at warm-path cost.

    The session owns one stable snapshot sample (identity drawn from *rng*
    on construction), the exact R×n reach matrix over it, and the CELF
    traces of every budget selected so far.  :meth:`apply_delta` patches all
    three in place; :meth:`reselect` repairs a cached seed set against the
    patched state.  All answers are bit-identical to cold recomputation on
    the current graph — the session only changes how much work they cost.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: CascadeModel,
        num_snapshots: int = 8,
        num_shards: int = DEFAULT_NUM_SHARDS,
        rng: RandomSource = None,
        tolerance: float = 1e-9,
        repair_budget: int | None = None,
        recompute_fraction: float = 0.25,
        pool_seed: int | None = None,
    ) -> None:
        if num_snapshots <= 0:
            raise GraphError(
                f"num_snapshots must be positive, got {num_snapshots}"
            )
        if not 0.0 < recompute_fraction <= 1.0:
            raise GraphError(
                "recompute_fraction must be in (0, 1], got "
                f"{recompute_fraction}"
            )
        self.graph = graph
        self.model = model
        self.num_snapshots = int(num_snapshots)
        self.num_shards = int(num_shards)
        self.tolerance = float(tolerance)
        self.repair_budget = repair_budget
        self.recompute_fraction = float(recompute_fraction)
        # The pool identity: pin it (``pool_seed``) to make two sessions
        # sample the identical stable snapshot stream — how cold
        # comparators reproduce a warm session's answers bit for bit.
        if pool_seed is not None:
            self._pool_seed = int(pool_seed)
        else:
            self._pool_seed = int(as_rng(rng).integers(0, 2**62))
        self._masks: list[np.ndarray] | None = None
        self._reach: np.ndarray | None = None
        self._oracle: SnapshotOracle | None = None
        self._traces: dict[int, CelfTrace] = {}

    # ------------------------------------------------------------------ #
    # shared state
    # ------------------------------------------------------------------ #

    @property
    def pool_seed(self) -> int:
        """The stable-sampling identity seed of this session's snapshots."""
        return self._pool_seed

    def _pool(self, graph: DiGraph) -> SnapshotPool:
        return SnapshotPool(
            graph,
            stable=True,
            struct_shards=self.num_shards,
            seed=self._pool_seed,
        )

    def _ensure_state(self) -> tuple[list[np.ndarray], np.ndarray, SnapshotOracle]:
        if self._masks is None or self._reach is None:
            with span(
                "incremental.cold_sample", snapshots=self.num_snapshots
            ):
                masks = self._pool(self.graph).masks(
                    self.model, self.num_snapshots
                )
                reach = all_reach_sizes(
                    self.graph, stack_masks(masks, self.graph.num_edges)
                )
            self._masks, self._reach = masks, reach
            self._oracle = None
        if self._oracle is None:
            self._oracle = SnapshotOracle(self.graph, self._masks)
        return self._masks, self._reach, self._oracle

    def _gains(self) -> list[float]:
        _, reach, _ = self._ensure_state()
        return [float(g) for g in reach.mean(axis=0)]

    def journal_params(self) -> dict[str, object]:
        """``run_start`` fields attributing warm vs cold paths in traces."""
        return {"shards": self.num_shards}

    # ------------------------------------------------------------------ #
    # cold selection
    # ------------------------------------------------------------------ #

    def select(self, k: int) -> list[int]:
        """Cold CELF selection; caches the trace for later repair."""
        with span("incremental.cold_select", k=k):
            _, _, oracle = self._ensure_state()
            seeds, trace = run_celf(oracle, k, self._gains())
        self._traces[k] = trace
        return seeds

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #

    def apply_delta(self, delta: EdgeDelta) -> DeltaOutcome:
        """Patch the graph, the snapshot sample, and the reach matrix.

        Invalidates shard-scoped cache state, splices the stable snapshot
        pool (clean shards reused, dirty shards resampled), and updates the
        reach matrix by blast radius.  With incremental disabled
        (``REPRO_INCREMENTAL=off``) every snapshot takes the full-recompute
        path instead — same numbers, cold cost.
        """
        old_graph = self.graph
        old_masks, old_reach, _ = self._ensure_state()
        applied = merge_delta(old_graph, delta)
        invalidation = invalidate_for_delta(applied, self.num_shards)
        new_graph = applied.graph

        with span(
            "incremental.splice",
            dirty_shards=len(invalidation.dirty_shards),
            shards=self.num_shards,
        ):
            new_masks = self._pool(new_graph).masks(
                self.model, self.num_snapshots
            )

        affected_counts: list[int] = []
        full_recompute: list[bool] = []
        with span("incremental.gains_update", snapshots=self.num_snapshots):
            if incremental_enabled():
                rows: list[np.ndarray] = []
                for t in range(self.num_snapshots):
                    row, count, full = self._update_row(
                        applied, old_masks[t], new_masks[t], old_reach[t]
                    )
                    rows.append(row)
                    affected_counts.append(count)
                    full_recompute.append(full)
                new_reach = np.stack(rows)
            else:
                new_reach = all_reach_sizes(
                    new_graph, stack_masks(new_masks, new_graph.num_edges)
                )
                affected_counts = [new_graph.num_nodes] * self.num_snapshots
                full_recompute = [True] * self.num_snapshots

        self.graph = new_graph
        self._masks = new_masks
        self._reach = new_reach
        self._oracle = None
        return DeltaOutcome(
            applied=applied,
            invalidation=invalidation,
            affected_counts=tuple(affected_counts),
            full_recompute=tuple(full_recompute),
        )

    def _update_row(
        self,
        applied: AppliedDelta,
        old_mask: np.ndarray,
        new_mask: np.ndarray,
        old_row: np.ndarray,
    ) -> tuple[np.ndarray, int, bool]:
        """One snapshot's reach-size row after the delta.

        A node's reach set can change only if it reaches the source of an
        edge whose live status differs between the snapshots — survivors
        whose bit flipped (dirty-shard resampling can flip them), removed
        edges that were live, added edges that are live.  The union of the
        reverse-reachable sets of those sources in the old and new live
        graphs is the exact blast radius; rows outside it are copied.
        """
        parent, child = applied.parent, applied.graph
        old_src, _ = parent.edge_array()
        new_src, _ = child.edge_array()

        changed_sources: list[np.ndarray] = []
        if applied.kept_old_ids.size:
            live_old = lookup_bits(old_mask, applied.kept_old_ids)
            live_new = lookup_bits(new_mask, applied.kept_new_ids)
            flipped = live_old != live_new
            changed_sources.append(old_src[applied.kept_old_ids[flipped]])
        if applied.removed_old_ids.size:
            was_live = lookup_bits(old_mask, applied.removed_old_ids)
            changed_sources.append(
                old_src[applied.removed_old_ids[was_live]]
            )
        if applied.added_new_ids.size:
            is_live = lookup_bits(new_mask, applied.added_new_ids)
            changed_sources.append(new_src[applied.added_new_ids[is_live]])

        sources = (
            np.unique(np.concatenate(changed_sources))
            if changed_sources
            else np.zeros(0, np.int64)
        )
        if sources.size == 0:
            return old_row.copy(), 0, False

        affected = parent.reverse_reachable_from(
            sources, old_mask
        ) | child.reverse_reachable_from(sources, new_mask)
        count = int(affected.sum())
        if count > self.recompute_fraction * child.num_nodes:
            return all_reach_sizes(child, new_mask), count, True
        row = old_row.copy()
        for node in np.flatnonzero(affected):
            row[node] = int(
                child.reachable_from([int(node)], new_mask).sum()
            )
        return row, count, False

    # ------------------------------------------------------------------ #
    # warm reselection
    # ------------------------------------------------------------------ #

    def reselect(self, k: int) -> ReselectOutcome:
        """Seed set for budget *k* on the current graph, repaired if possible.

        Bit-identical to :meth:`select` on a fresh session over the current
        graph state; uses the cached CELF trace to avoid re-deriving picks
        that provably still hold.  Updates ``incremental.repair_depth`` /
        ``incremental.repairs`` / ``incremental.fallbacks``.
        """
        _, _, oracle = self._ensure_state()
        gains = self._gains()
        trace = self._traces.get(k)
        if trace is None or not incremental_enabled():
            seeds, new_trace = run_celf(oracle, k, gains)
            self._traces[k] = new_trace
            return ReselectOutcome(
                seeds=tuple(seeds),
                repair_depth=0,
                evaluations=0,
                fallback=False,
                repaired=False,
            )

        with span("incremental.repair", k=k):
            outcome = repair_celf(
                oracle,
                k,
                gains,
                trace,
                tolerance=self.tolerance,
                budget=self.repair_budget,
            )
        _REPAIR_DEPTH.observe(float(outcome.repair_depth))
        if outcome.fallback:
            _FALLBACKS.inc()
            seeds, new_trace = run_celf(oracle, k, gains)
            self._traces[k] = new_trace
            return ReselectOutcome(
                seeds=tuple(seeds),
                repair_depth=outcome.repair_depth,
                evaluations=outcome.evaluations,
                fallback=True,
                repaired=False,
            )
        _REPAIRS.inc()
        self._traces[k] = outcome.trace
        return ReselectOutcome(
            seeds=tuple(outcome.seeds),
            repair_depth=outcome.repair_depth,
            evaluations=outcome.evaluations,
            fallback=False,
            repaired=True,
        )
