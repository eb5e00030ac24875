"""Pinned single-group spreads: a classical IC/WC/LT spread is the one-group sweep.

The values below were recorded from the former single-group kernels
(``cascade_spreads`` for IC/WC, one ``simulate_threshold`` per round for
LT), on a hep surrogate with seeds that are unsorted and repeated.  The
one-group competitive path must reproduce them bit for bit: the
estimates, each diffusion's active set, and how far each diffusion
advances its generator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cascade.competitive import CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.simulate import estimate_spread
from repro.cascade.wc import WeightedCascade
from repro.graphs.datasets import hep
from repro.utils.rng import as_rng

SEEDS = [40, 0, 17, 5, 5, 40, 3]

MODELS = {
    "ic": IndependentCascade(0.1),
    "wc": WeightedCascade(),
    "lt": LinearThreshold(),
}

#: ``estimate_spread(graph, model, SEEDS, rounds=40, rng=2015)``.
ESTIMATES = {
    "ic": (25.9, 18.212140216955593, 40),
    "wc": (27.725, 17.555753677341432, 40),
    "lt": (34.1, 27.01452600703213, 40),
}

#: Ten diffusions off ``as_rng(7)``: active-set sizes, the sha256 of the
#: sorted active nodes (little-endian int64, ``b"|"`` after each), and the
#: generator's next ``integers(2**31)``.
DIFFUSIONS = {
    "ic": (
        [16, 9, 22, 23, 79, 12, 31, 7, 53, 11],
        "821554a833acabb5848b5e419405463fcb2e14704a9e8cd49556c5ef09611bc7",
        604270694,
    ),
    "wc": (
        [16, 40, 19, 9, 14, 37, 55, 25, 8, 9],
        "3a087374d5bdfc2e6ad4d78ccd3f997c796a1355587c689d7ddc3284aa210b2f",
        270430343,
    ),
    "lt": (
        [53, 7, 39, 11, 10, 6, 6, 62, 14, 17],
        "d1ffd4ef3f8185a3e7fc85cc8b70ca7fcb8e7c736354033fe85c56c662cd47d4",
        1031922412,
    ),
}


@pytest.fixture(scope="module")
def graph():
    return hep(scale=0.02)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_estimate_spread_pinned(graph, model_name):
    estimate = estimate_spread(graph, MODELS[model_name], SEEDS, rounds=40, rng=2015)
    assert (estimate.mean, estimate.std, estimate.samples) == ESTIMATES[model_name]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_single_diffusions_pinned(graph, model_name):
    engine = CompetitiveDiffusion(graph, MODELS[model_name])
    rng = as_rng(7)
    digest = hashlib.sha256()
    sizes = []
    for _ in range(10):
        owner = engine.run([SEEDS], rng).owner
        assert owner.max() == 0
        nodes = np.flatnonzero(owner >= 0).astype("<i8")
        sizes.append(int(nodes.size))
        digest.update(nodes.tobytes())
        digest.update(b"|")
    assert (sizes, digest.hexdigest(), int(rng.integers(2**31))) == DIFFUSIONS[model_name]
