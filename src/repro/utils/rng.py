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

from repro.config import RunConfig

RandomSource = int | np.random.Generator | np.random.SeedSequence | None
"""Anything convertible to a :class:`numpy.random.Generator`."""


def _entropy_rng() -> np.random.Generator:
    """The single allowlisted ambient-entropy boundary of the library.

    ``rng=None`` means "fresh OS entropy" by documented contract, and this
    helper is the only place that contract is honoured — every other
    generator in the project derives from an explicit seed through the
    ``SeedSequence.spawn`` chain.  Setting ``REPRO_REQUIRE_SEED=1`` turns
    the fallback into a ``ValueError``: an opt-in check for a user who
    wants a run of their own code to fail at the first call that would
    draw unseeded randomness.  Neither CI nor the benchmark sets it (the
    benchmark clears every ``REPRO_*`` variable), and the test suite does
    not pass under it, since some tests call with ``rng=None`` on purpose.
    """
    if RunConfig.from_env().require_seed:
        raise ValueError(
            "rng=None requests ambient OS entropy, but REPRO_REQUIRE_SEED "
            "is set; pass an explicit int seed, SeedSequence, or Generator"
        )
    # Decision (reprolint RP010): ambient entropy is the *documented*
    # meaning of rng=None, kept behind this one boundary and gated by
    # REPRO_REQUIRE_SEED above for strict runs.
    return np.random.default_rng()  # reprolint: disable=RP010


def as_rng(rng: RandomSource = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    ``None`` produces a generator seeded from OS entropy (rejected when the
    ``REPRO_REQUIRE_SEED`` environment variable is set — see
    :func:`_entropy_rng`); an ``int`` or a
    :class:`numpy.random.SeedSequence` produces a deterministic generator;
    an existing generator is returned unchanged (NOT copied — callers share
    its state deliberately).
    """
    if rng is None:
        return _entropy_rng()
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
