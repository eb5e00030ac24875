"""The live-key discount kernel against the per-pick reference loops.

:class:`repro.algorithms.discount.DiscountSelector` rescores only the
picked node's out-neighbours; ``tests/reference_selection.py`` keeps the
O(k·n) loops that re-mask and argmax every score per pick (and HighDegree's
stable sort).  Both must return the same seeds and leave the generator in
the same state, so switching kernels changes no random stream.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.heuristics import HighDegree
from repro.algorithms.single_discount import SingleDiscount
from repro.graphs.datasets import get_dataset
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from tests.reference_selection import (
    degree_discount_loop,
    high_degree_by_argsort,
    single_discount_loop,
)

SURROGATES = [("hep", 0.08), ("phy", 0.05), ("wiki", 0.05)]


def _pairs(probability: float) -> list:
    """(kernel selector, reference loop) for the three degree heuristics."""
    return [
        (
            DegreeDiscount(probability),
            lambda g, k, gen: degree_discount_loop(g, k, probability, gen),
        ),
        (SingleDiscount(), single_discount_loop),
        (HighDegree(), high_degree_by_argsort),
    ]


def _assert_same_as_reference(graph: DiGraph, k: int, rng: int, probability: float) -> None:
    for selector, reference in _pairs(probability):
        ours_gen = np.random.default_rng(rng)
        ref_gen = np.random.default_rng(rng)
        ours = selector._select(graph, k, ours_gen)
        ref = reference(graph, k, ref_gen)
        assert ours == ref, selector.name
        assert ours_gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.fixture(scope="module", params=SURROGATES, ids=lambda s: s[0])
def surrogate(request) -> DiGraph:
    name, scale = request.param
    return get_dataset(name, scale=scale)


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_surrogates(self, surrogate, k):
        for rng in range(20):
            _assert_same_as_reference(surrogate, k, rng, probability=0.05)

    @given(
        n=st.integers(min_value=1, max_value=30),
        rng=st.integers(min_value=0, max_value=2**31 - 1),
        probability=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_random_graphs(self, n, rng, probability, data):
        # Arbitrary arc lists: self-loops and repeats are dropped by DiGraph.
        node = st.integers(min_value=0, max_value=n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=4 * n))
        k = data.draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))
        _assert_same_as_reference(DiGraph(n, edges), k, rng, probability)

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_random_graph_every_node(self, seed):
        graph = erdos_renyi(40, 600, rng=seed)
        _assert_same_as_reference(graph, graph.num_nodes, seed, probability=0.3)

    def test_undirected_graph_every_node(self, karate):
        _assert_same_as_reference(karate, karate.num_nodes, 3, probability=0.5)


class _ZeroJitter(np.random.Generator):
    """A generator whose ``random`` draws are all zero: no tie is broken."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.zeros(size)


class TestLowestIndexTieRule:
    # An undirected 8-cycle: every node has degree 2, so with zero jitter
    # every pick is decided by the lowest-index tie rule alone.
    @pytest.fixture
    def cycle(self) -> DiGraph:
        return DiGraph.from_undirected(8, [(i, (i + 1) % 8) for i in range(8)])

    def test_high_degree_takes_lowest_indices(self, cycle):
        assert HighDegree()._select(cycle, 8, _ZeroJitter(np.random.PCG64(0))) == list(
            range(8)
        )

    @pytest.mark.parametrize("selector", [DegreeDiscount(0.1), SingleDiscount()])
    def test_discounts_skip_neighbours_then_take_lowest(self, cycle, selector):
        # Each pick discounts its two neighbours, so the even nodes go
        # first; then the odd nodes tie again at two selected neighbours.
        seeds = selector._select(cycle, 8, _ZeroJitter(np.random.PCG64(0)))
        assert seeds == [0, 2, 4, 6, 1, 3, 5, 7]


class TestPinnedWikiSelection:
    """Seeds on the wiki surrogate as recorded before the live-key kernel.

    At k = 3000 the two discount rules part ways (first at pick 328), so
    the digests pin both discount formulas, not just the degree order.
    """

    K = 3000
    FIRST = [108818, 67598, 47008, 7379, 63573, 10918, 78955, 63143, 53325, 108961]
    NEXT_DRAW = 2341693494546688598

    @pytest.fixture(scope="class")
    def wiki(self) -> DiGraph:
        return get_dataset("wiki", scale=0.05)

    @pytest.mark.parametrize(
        "selector, last, digest",
        [
            (
                DegreeDiscount(0.08),
                [44774, 103037, 89307, 3525, 46673],
                "3615bdb0daddabda99b1b147e098e68c196dd80af1dc95d209e06c9524c1c0e4",
            ),
            (
                SingleDiscount(),
                [6548, 67045, 20774, 110933, 6300],
                "48faeb8238e753823e3f089b2fb8dd5245608b9f91a4ff77613dde926510d0b9",
            ),
        ],
        ids=["ddic", "sdwc"],
    )
    def test_seeds(self, wiki, selector, last, digest):
        generator = np.random.default_rng(2015)
        seeds = selector._select(wiki, self.K, generator)
        assert seeds[:10] == self.FIRST
        assert seeds[-5:] == last
        assert hashlib.sha256(np.asarray(seeds, dtype=np.int64).tobytes()).hexdigest() == digest
        assert int(generator.integers(1 << 62)) == self.NEXT_DRAW
