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

import threading
import time
from abc import ABC, abstractmethod
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
from repro.graphs.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.metrics import Histogram, counter, histogram
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:
    from repro.cascade.pools import SnapshotPool

_LOG = get_logger("algorithms")

_SELECTIONS = counter("algorithms.selections")

# Per-algorithm wall-time histograms have dynamic names; memoize the handles
# so a selection inside the payoff loop never re-formats the metric name or
# re-enters the registry (same discipline reprolint RP004 enforces for the
# cascade hot paths).
_SELECT_SECONDS: dict[str, Histogram] = {}
_SELECT_SECONDS_LOCK = threading.Lock()


def _select_seconds_histogram(name: str) -> Histogram:
    try:
        return _SELECT_SECONDS[name]
    except KeyError:
        with _SELECT_SECONDS_LOCK:
            handle = _SELECT_SECONDS.get(name)
            if handle is None:
                handle = histogram(f"algorithms.{name}.select_seconds")
                _SELECT_SECONDS[name] = handle
            return handle


class SeedSelector(ABC):
    """An influence-maximization algorithm: graph × budget → ordered seed list.

    Subclasses implement :meth:`_select`; the public :meth:`select` wraps it
    with observability (selection counter, per-algorithm wall-time
    histogram, debug log) so every seed-set draw in the pipeline is
    measured uniformly.
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
        supplies shared live-edge masks and initial gains via
        :meth:`_select_pooled`; other algorithms ignore it.

        When *rng* is provided (reproducible call), the result is memoized
        on (graph fingerprint, selector params, ``k``, RNG state, pool
        token).  A hit returns the cached seeds and restores the
        post-selection RNG state into the caller's generator, so warm runs
        are bit-identical to cold ones.
        """
        started = time.perf_counter()
        generator = as_rng(rng)
        use_pool = pool is not None and self.uses_snapshots
        # Seeding the pool draws (at most) one integer from the caller's
        # generator — unconditionally, so the RNG stream does not depend on
        # whether the cache is warm.
        pool_token = pool.token(generator) if use_pool and pool is not None else None
        memo = selection_memo() if rng is not None else None
        key: Any = None
        if memo is not None:
            key = (
                graph.fingerprint,
                params_token(self),
                int(k),
                rng_token(generator),
                pool_token,
            )
            hit = memo.get(key)
            if hit is not None:
                seeds, end_state = hit
                set_rng_state(generator, end_state)
                _SELECTIONS.inc()
                _LOG.debug(
                    "%s reused cached selection of %d seeds on %d nodes",
                    self.name,
                    len(seeds),
                    graph.num_nodes,
                )
                return list(seeds)
        if use_pool and pool is not None:
            seeds = self._select_pooled(graph, k, generator, pool)
        else:
            seeds = self._select(graph, k, generator)
        if memo is not None:
            memo.put(
                key,
                (tuple(seeds), rng_state(generator)),
                nbytes=8 * len(seeds) + 256,
            )
        elapsed = time.perf_counter() - started  # reprolint: disable=RP009
        _SELECTIONS.inc()
        _select_seconds_histogram(self.name).observe(elapsed)
        _LOG.debug(
            "%s selected %d seeds on %d nodes in %.3fs",
            self.name,
            len(seeds),
            graph.num_nodes,
            elapsed,
        )
        return seeds

    @abstractmethod
    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        """Algorithm body; see :meth:`select` for the contract."""

    def _select_pooled(
        self,
        graph: DiGraph,
        k: int,
        rng: np.random.Generator,
        pool: SnapshotPool,
    ) -> list[int]:
        """Pool-aware body; the default ignores the pool (no snapshots used)."""
        return self._select(graph, k, rng)

    def _check_budget(self, graph: DiGraph, k: int) -> int:
        check_positive_int(k, "k")
        if k > graph.num_nodes:
            raise SeedSelectionError(
                f"budget k={k} exceeds the graph's {graph.num_nodes} nodes"
            )
        return k

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


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
