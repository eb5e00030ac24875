"""Seed-selector interface and registry.

A *pure strategy* in the paper is simply an IM algorithm (Definition 1); this
module defines the interface every algorithm implements plus a small string
registry so experiments can be configured by name (``"ddic"``, ``"mgwc"``…).

Two contract points matter for the game-theoretic layer:

* ``select`` returns seeds in **greedy order** — the prefix ``seeds[:k']``
  for ``k' < k`` is the algorithm's answer for the smaller budget.  The
  figure benches sweep ``k = 10..50`` from a single ``k = 50`` call.
* Algorithms may be randomized (all greedy variants are, via their sampled
  snapshots; the heuristics break ties randomly).  The paper's Theorem 1
  footnote leans on exactly this: two groups running the *same* algorithm do
  not necessarily pick identical seeds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.cache import (
    params_token,
    rng_state,
    rng_token,
    selection_memo,
    set_rng_state,
)
from repro.errors import SeedSelectionError
from repro.exec.executor import Executor
from repro.exec.jobs import SelectedSeeds
from repro.graphs.digraph import DiGraph
from repro.obs.log import get_logger
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:
    from repro.cascade.pools import SnapshotPool

_LOG = get_logger("algorithms")


class SeedSelector(ABC):
    """An influence-maximization algorithm: graph × budget → ordered seed list.

    Subclasses implement :meth:`_select`; the public :meth:`select` wraps it
    with the selection memo and a debug log.
    """

    #: short identifier used in strategy labels ("mgic", "ddic", ...)
    name: str = "abstract"

    #: whether the algorithm consumes live-edge snapshot pools; pool-aware
    #: callers only hand a shared pool to selectors that declare True.
    uses_snapshots: ClassVar[bool] = False

    def select(
        self,
        graph: DiGraph,
        k: int,
        rng: RandomSource = None,
        pool: SnapshotPool | None = None,
    ) -> list[int]:
        """Return *k* distinct seed nodes in greedy (prefix-consistent) order.

        *pool*, when given and the algorithm declares ``uses_snapshots``,
        supplies shared live-edge masks and initial gains: the selection
        runs inline as a one-selector :class:`SelectionJob`, the path every
        pooled selection takes; other algorithms ignore the pool.

        When *rng* is provided (reproducible call), the result is memoized
        on (graph fingerprint, selector params, ``k``, RNG state, pool
        token).  A hit returns the cached seeds and restores the
        post-selection RNG state into the caller's generator, so warm runs
        are bit-identical to cold ones.
        """
        generator = as_rng(rng)
        shared = pool if pool is not None and self.uses_snapshots else None
        hit, key = self._lookup(graph, k, generator, shared, memoize=rng is not None)
        if hit is not None:
            return hit
        if shared is not None:
            (result,) = SelectionJob(shared, (self,), k).run(generator)
            seeds = list(result.seeds[0])
        else:
            seeds = self._select(graph, k, generator)
            self._log_selection(graph, seeds)
        if key is not None:
            _remember(key, seeds, rng_state(generator))
        return seeds

    def _lookup(
        self,
        graph: DiGraph,
        k: int,
        generator: np.random.Generator,
        pool: SnapshotPool | None,
        memoize: bool,
    ) -> tuple[list[int] | None, Any]:
        """Draw the pool token, then look the selection up in the memo.

        Seeding the pool draws (at most) one integer from *generator* —
        unconditionally, so the stream does not depend on whether the memo
        is warm.  Returns ``(seeds, key)``: the seeds of a hit (whose
        post-selection state is restored into *generator*) or ``None``,
        and the memo key, ``None`` when not memoizing.
        """
        pool_token = pool.token(generator) if pool is not None else None
        if not memoize:
            return None, None
        key = (
            graph.fingerprint,
            params_token(self),
            int(k),
            rng_token(generator),
            pool_token,
        )
        hit = selection_memo().get(key)
        if hit is None:
            return None, key
        seeds, end_state = hit
        set_rng_state(generator, end_state)
        _LOG.debug(
            "%s reused cached selection of %d seeds on %d nodes",
            self.name,
            len(seeds),
            graph.num_nodes,
        )
        return list(seeds), key

    def _log_selection(self, graph: DiGraph, seeds: Sequence[int]) -> None:
        _LOG.debug(
            "%s selected %d seeds on %d nodes", self.name, len(seeds), graph.num_nodes
        )

    @abstractmethod
    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        """Algorithm body; see :meth:`select` for the contract."""

    def _select_pooled(self, graph: DiGraph, k: int, pool: SnapshotPool) -> list[int]:
        """Pool-aware body of a ``uses_snapshots`` algorithm."""
        raise NotImplementedError(f"{self.name} does not select from snapshot pools")

    def _check_budget(self, graph: DiGraph, k: int) -> int:
        check_positive_int(k, "k")
        if k > graph.num_nodes:
            raise SeedSelectionError(
                f"budget k={k} exceeds the graph's {graph.num_nodes} nodes"
            )
        return k

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _remember(key: Any, seeds: Sequence[int], end_state: dict[str, Any]) -> None:
    """Memoize a computed selection with its post-selection generator state."""
    selection_memo().put(key, (tuple(int(s) for s in seeds), end_state))


@dataclass(frozen=True)
class SelectionJob:
    """The snapshot selections of one ``(draw, group)`` pool, as one job.

    For every selector (each declares ``uses_snapshots``) the job samples
    the pool's masks, builds their reach closure (the NewGreedy gains and
    every CELF evaluation read it) and runs CELF, all in the job's own
    process, then releases the closure and returns their seed lists as one
    :class:`SelectedSeeds`.  A pooled selection is a function of (graph,
    model, count, pool token, k), so the job draws nothing from its
    generator and its seeds are the same inline or in a worker process.
    It pickles as the pool's graph and token, the selectors, and ``k``.
    """

    pool: SnapshotPool
    selectors: tuple[SeedSelector, ...]
    k: int

    @property
    def num_nodes(self) -> int | None:
        return self.pool.graph.num_nodes

    def run(self, generator: np.random.Generator) -> tuple[SelectedSeeds]:
        graph = self.pool.graph
        seeds = []
        for selector in self.selectors:
            picks = selector._select_pooled(graph, self.k, self.pool)
            selector._log_selection(graph, picks)
            seeds.append(tuple(int(s) for s in picks))
        self.pool.release()
        return (SelectedSeeds(tuple(seeds)),)


def select_with_pools(
    graph: DiGraph,
    k: int,
    selectors: Sequence[SeedSelector],
    pools: Sequence[SnapshotPool],
    generator: np.random.Generator,
    executor: Executor,
) -> list[list[list[int]]]:
    """Every selector's seeds against each pool; the pooled ones as one batch.

    Pools are served in order, and the selectors in order for each pool,
    as ``selector.select(graph, k, generator, pool=pool)`` would serve
    them: a heuristic selection draws from *generator*, a pooled one draws
    its pool's token and is looked up in the selection memo.  Pooled
    selections the memo misses are deferred: one :class:`SelectionJob` per
    pool, all submitted to *executor* as one batch after the last pool.
    Their results enter the memo with the generator state each selection
    had, so the generator, the memo and the seeds are those of the
    one-by-one loop on every backend.  A failing job raises before any of
    the batch's results enters the memo.
    """
    seeds: list[list[list[int]]] = []
    jobs: list[SelectionJob] = []
    deferred: list[tuple[int, list[tuple[int, Any, dict[str, Any]]]]] = []
    for pool in pools:
        row: list[list[int]] = []
        batch: list[SeedSelector] = []
        slots: list[tuple[int, Any, dict[str, Any]]] = []
        for selector in selectors:
            if not selector.uses_snapshots:
                row.append(selector.select(graph, k, generator, pool=pool))
                continue
            hit, key = selector._lookup(graph, k, generator, pool, memoize=True)
            if hit is None:
                batch.append(selector)
                slots.append((len(row), key, rng_state(generator)))
                hit = []  # filled in from the batch below
            row.append(hit)
        if batch:
            jobs.append(SelectionJob(pool, tuple(batch), k))
            deferred.append((len(seeds), slots))
        seeds.append(row)
    if jobs:
        # The jobs draw nothing: their streams come off a fixed seed, so
        # the batch leaves the caller's generator untouched.
        outcomes = executor.run(jobs, rng=0)
        for (pool_index, slots), outcome in zip(deferred, outcomes):
            (result,) = outcome.estimates
            for (slot, key, end_state), picks in zip(slots, result.seeds):
                seeds[pool_index][slot] = list(picks)
                _remember(key, picks, end_state)
    return seeds


_REGISTRY: dict[str, Callable[..., SeedSelector]] = {}


def register_algorithm(name: str, factory: Callable[..., SeedSelector]) -> None:
    """Register *factory* under *name* for :func:`get_algorithm` lookup."""
    key = name.lower()
    if key in _REGISTRY:
        raise SeedSelectionError(f"algorithm {name!r} is already registered")
    _REGISTRY[key] = factory


def get_algorithm(name: str, **kwargs: object) -> SeedSelector:
    """Instantiate a registered algorithm by name (case-insensitive)."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise SeedSelectionError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def registered_algorithms() -> list[str]:
    """Names currently in the registry."""
    return sorted(_REGISTRY)


def validate_seed_list(seeds: Sequence[int], k: int, num_nodes: int) -> list[int]:
    """Check a selector's output: k distinct in-range nodes. Returns a list."""
    seeds = [int(s) for s in seeds]
    if len(seeds) != k:
        raise SeedSelectionError(f"expected {k} seeds, got {len(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise SeedSelectionError("seed list contains duplicates")
    for s in seeds:
        if not 0 <= s < num_nodes:
            raise SeedSelectionError(f"seed {s} out of range [0, {num_nodes})")
    return seeds
