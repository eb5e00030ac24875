"""Work-sharing cache: keyed memos for seed selections and blocking runs.

Parameter sweeps (vary ``rounds``, vary ``r``, vary tie-break) repeat the
same seed selections over and over — the selection inputs (graph, strategy
parameters, budget, RNG state) don't change when only simulation-side knobs
do.  This package memoizes those computations behind content-derived keys:

* :func:`selection_memo` — ``SeedSelector.select`` results, keyed on graph
  fingerprint, selector params, ``k``, RNG state, and (for pooled
  snapshot strategies) the pool token.
* :func:`blocking_memo` — ``select_blockers`` results, keyed analogously.

Hits restore the exact post-computation RNG state into the caller's
generator, so a warm cache is bit-identical to a cold one — downstream
draws continue from the same stream position either way.  See
:mod:`repro.cache.memo` for the metrics (``cache.hits`` /
``cache.misses``) and journal events.

Graph edits need no invalidation: every key leads with the graph
fingerprint, and a graph with different edges has a different one, so its
lookups can never hit another graph's entries.  Those age out FIFO.
"""

from __future__ import annotations

from repro.cache.keys import (
    EXCLUDED_ATTRS,
    freeze,
    params_token,
    rng_state,
    rng_token,
    set_rng_state,
)
from repro.cache.memo import Memo

__all__ = [
    "EXCLUDED_ATTRS",
    "Memo",
    "blocking_memo",
    "clear_caches",
    "freeze",
    "params_token",
    "rng_state",
    "rng_token",
    "selection_memo",
    "set_rng_state",
]

_SELECTION_MEMO = Memo("selection", capacity=4096)
_BLOCKING_MEMO = Memo("blocking", capacity=512)


def selection_memo() -> Memo:
    """The shared memo for ``SeedSelector.select`` results."""
    return _SELECTION_MEMO


def blocking_memo() -> Memo:
    """The shared memo for ``select_blockers`` results."""
    return _BLOCKING_MEMO


def clear_caches() -> None:
    """Explicitly invalidate every shared memo."""
    _SELECTION_MEMO.clear()
    _BLOCKING_MEMO.clear()
