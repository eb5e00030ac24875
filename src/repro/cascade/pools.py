"""Shared live-edge snapshot pools: sample once, serve every strategy.

Inside one payoff-table estimation, every snapshot-greedy strategy
(MixGreedy) of a given ``(draw, group)`` pair used to resample
its own live-edge pool and recompute the batched NewGreedy initial gains —
the dominant cost of selection — even when they share the same diffusion
model.  A :class:`SnapshotPool` is handed to all ``z`` strategies of a
group and memoizes, per ``(model, count)``:

* the sampled masks (:meth:`masks`),
* the :class:`~repro.cascade.snapshots.SnapshotOracle` built on them
  (:meth:`oracle`), whose reach closure is the one DP of the selection
  and is dropped once the selection job is done (:meth:`release`),
* the initial gains read from that closure (:meth:`initial_gains`,
  shared by every selector of that model).

Pools store masks as **packed bitsets** (one bit per edge — see
:mod:`repro.utils.bitset`), so a resident pool costs m/8 bytes per snapshot
instead of m.

**Where a pool is used.**  The payoff estimator submits each pool with
its group's snapshot strategies as one
:class:`~repro.algorithms.base.SelectionJob`, which samples, builds the
closure and runs CELF wherever the executor places it.  A pool pickles as
its graph and token only: the worker resamples the identical masks from
the token, so masks never cross a process boundary.

**Randomization contract (Theorem 1).**  The paper's mixed-equilibrium
argument needs identical strategies played by different groups to produce
*distinct* (independently randomized) seed sets, so pools are created per
``(draw, group)`` and never shared across groups.  A pool draws exactly one
child seed from the caller's generator on first :meth:`token` use; mask
content is then derived from that seed plus a stable digest of the request
key, independent of request order — a selection-cache hit that skips one
strategy's pool access therefore never perturbs what another strategy
samples.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cache import params_token
from repro.cascade.base import CascadeModel
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import counter
from repro.utils.bitset import packed_bytes
from repro.utils.rng import RandomSource, as_rng

__all__ = ["SnapshotPool"]

_POOL_SAMPLES = counter("cascade.pool_samples")
_POOL_SHARED = counter("cascade.pool_shared")
_POOL_MASK_BYTES = counter("cascade.pool_mask_bytes")


class SnapshotPool:
    """Memoized live-edge sample shared by the strategies of one group."""

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self._seed: int | None = None
        self._masks: dict[tuple[object, int], list[np.ndarray]] = {}
        self._oracles: dict[tuple[object, int], SnapshotOracle] = {}
        self._gains: dict[tuple[object, int], list[float]] = {}

    def token(self, rng: RandomSource = None) -> int:
        """The pool's identity seed; drawn from *rng* on first use.

        The single draw happens here — and only here — so the caller's
        generator advances identically whether later pool accesses are
        served cold or skipped by a selection-cache hit.  The token also
        feeds the selection-cache key: two pools seeded differently never
        collide.
        """
        if self._seed is None:
            generator = as_rng(rng)
            self._seed = int(generator.integers(0, 2**62))
        return self._seed

    @property
    def seeded(self) -> bool:
        return self._seed is not None

    def __getstate__(self) -> tuple[DiGraph, int | None]:
        # A pool travels to a selection job as its graph and token: every
        # cached sample is a function of the two, so the worker resamples
        # it rather than receiving it.
        return (self.graph, self._seed)

    def __setstate__(self, state: tuple[DiGraph, int | None]) -> None:
        graph, seed = state
        SnapshotPool.__init__(self, graph)
        self._seed = seed

    def _request_key(self, model: CascadeModel, count: int) -> tuple[object, int]:
        return (params_token(model), int(count))

    def _child_seed(self, key: tuple[object, ...]) -> int:
        if self._seed is None:
            raise CascadeError("snapshot pool is unseeded; call token(rng) first")
        digest = hashlib.blake2b(
            repr(key).encode(), digest_size=8, key=str(self._seed).encode()
        )
        return int.from_bytes(digest.digest(), "big") >> 2

    def masks(self, model: CascadeModel, count: int) -> list[np.ndarray]:
        """The shared live-edge masks for ``(model, count)``; sampled once.

        One stream seeded off the request key, returned as packed bitsets.
        """
        key = self._request_key(model, count)
        masks = self._masks.get(key)
        if masks is None:
            masks = sample_snapshots(
                self.graph, model, count, as_rng(self._child_seed(key)), packed=True
            )
            self._masks[key] = masks
            _POOL_SAMPLES.inc()
            _POOL_MASK_BYTES.inc(packed_bytes(masks))
        else:
            _POOL_SHARED.inc()
        return masks

    def oracle(self, model: CascadeModel, count: int) -> SnapshotOracle:
        """A spread oracle over the shared masks."""
        key = self._request_key(model, count)
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = SnapshotOracle(self.graph, self.masks(model, count))
            self._oracles[key] = oracle
        return oracle

    def release(self) -> None:
        """Drop the oracles and their reach closures; masks and gains stay.

        A selection job releases its pool when its selectors are done, so
        a closure is held only while the selection that needs it runs.
        """
        self._oracles.clear()

    def initial_gains(self, model: CascadeModel, count: int) -> list[float]:
        """The shared NewGreedy gains for ``(model, count)``.

        Read once from the reach closure of :meth:`oracle`, the same
        closure its CELF rounds gather from.
        """
        key = self._request_key(model, count)
        gains = self._gains.get(key)
        if gains is None:
            gains = self.oracle(model, count).initial_gains()
            self._gains[key] = gains
        return gains
