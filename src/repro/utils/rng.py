"""Random-number-generator plumbing.

Every stochastic component of the library (cascade simulation, randomized
seed-selection algorithms, synthetic graph generators, Monte-Carlo payoff
estimation) accepts a ``rng`` argument of type :data:`RandomSource` — either
an integer seed, ``None`` (fresh OS entropy), or an existing
:class:`numpy.random.Generator`.  Normalizing through :func:`as_rng` keeps
experiments reproducible end to end: a single seed at the top level
deterministically derives every stream below it via
:func:`spawn_seed_sequences`.
"""

from __future__ import annotations

import numpy as np

RandomSource = int | np.random.Generator | np.random.SeedSequence | None
"""Anything convertible to a :class:`numpy.random.Generator`."""


def as_rng(rng: RandomSource = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    ``None`` produces a generator seeded from OS entropy — the one ambient
    entropy source of the library; an ``int`` or a
    :class:`numpy.random.SeedSequence` produces a deterministic generator;
    an existing generator is returned unchanged (NOT copied — callers share
    its state deliberately).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed, a SeedSequence, or a numpy "
        f"Generator, got {type(rng).__name__}"
    )


def spawn_seed_sequences(rng: RandomSource, count: int) -> list[np.random.SeedSequence]:
    """Derive *count* independent :class:`~numpy.random.SeedSequence` children.

    This is the determinism scheme of the batched execution engine
    (:mod:`repro.exec`): exactly **one** 63-bit entropy value is drawn from
    *rng*, seeds a root ``SeedSequence``, and the children are spawned from
    that root.  Because the parent generator advances by a single draw no
    matter how many jobs are in the batch — and each child stream depends
    only on (entropy, child index) — results are bit-identical across
    backends, worker counts, and completion orders for a fixed master seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    entropy = int(as_rng(rng).integers(0, 2**63 - 1))
    return list(np.random.SeedSequence(entropy).spawn(count))


def derive_seed(rng: RandomSource, salt: int | None = None) -> int:
    """Draw a fresh 63-bit integer seed from *rng*, optionally XOR-ed with *salt*.

    Useful when an API (e.g. ``networkx`` generators) wants an integer seed
    rather than a generator object.
    """
    value = int(as_rng(rng).integers(0, 2**63 - 1))
    if salt is not None:
        value ^= salt & (2**63 - 1)
    return value
