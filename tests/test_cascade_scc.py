"""The numpy SCC of the reach DP against a textbook Tarjan oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cascade.reachability as reachability
from repro.cascade.reachability import strong_components
from tests.reference_kernels import tarjan_components


def partition(num_nodes: int, src, dst) -> tuple[int, set[frozenset[int]]]:
    """The numpy SCC as a set of node sets, after checking its labels."""
    count, labels = strong_components(num_nodes, np.asarray(src), np.asarray(dst))
    assert labels.shape == (num_nodes,)
    assert sorted(set(labels.tolist())) == list(range(count))
    groups: dict[int, set[int]] = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(v)
    return count, {frozenset(g) for g in groups.values()}


def oracle(num_nodes: int, src, dst) -> set[frozenset[int]]:
    arcs = list(zip(np.asarray(src).tolist(), np.asarray(dst).tolist()))
    return {frozenset(c) for c in tarjan_components(num_nodes, arcs)}


@st.composite
def digraphs(draw, max_nodes=30):
    """Random arcs plus planted self-loops, 2-cycles, a cycle and parallel arcs."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    arcs += [(v, v) for v in draw(st.lists(node, max_size=3))]
    for u, v in draw(st.lists(st.tuples(node, node), max_size=4)):
        arcs += [(u, v), (v, u)]
    cycle = draw(st.lists(node, unique=True, max_size=n))
    arcs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=6))
    src = np.array([u for u, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v in arcs], dtype=np.int64)
    return n, src, dst


class TestAgainstTarjan:
    @given(digraphs())
    @settings(max_examples=150, deadline=None)
    def test_random_digraphs(self, graph):
        n, src, dst = graph
        count, found = partition(n, src, dst)
        assert found == oracle(n, src, dst)
        assert count == len(found)

    @pytest.mark.parametrize("passes, sweeps", [(0, 64), (1, 64), (2, 64), (32, 1)])
    @given(graph=digraphs(max_nodes=20))
    @settings(max_examples=60, deadline=None)
    def test_tarjan_fallback(self, passes, sweeps, graph):
        # Forcing the colouring to give up early hands (part of) the graph
        # to the iterative Tarjan the production code falls back to.
        n, src, dst = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reachability, "_MAX_PASSES", passes)
            patch.setattr(reachability, "_MAX_SWEEPS", sweeps)
            assert partition(n, src, dst)[1] == oracle(n, src, dst)

    def test_labels_are_deterministic(self):
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 200, 400), rng.integers(0, 200, 400)
        first = strong_components(200, src, dst)
        second = strong_components(200, src.copy(), dst.copy())
        assert first[0] == second[0]
        assert first[1].tolist() == second[1].tolist()


class TestEdgeCases:
    def test_empty_graph(self):
        count, labels = strong_components(0, np.array([], np.int64), np.array([], np.int64))
        assert count == 0 and labels.size == 0

    def test_single_node(self):
        assert partition(1, [], []) == (1, {frozenset({0})})

    def test_self_loop_is_a_singleton(self):
        assert partition(2, [0, 1], [0, 1]) == (2, {frozenset({0}), frozenset({1})})

    def test_two_cycle_and_parallel_arcs(self):
        assert partition(3, [0, 1, 0, 0, 2], [1, 0, 1, 1, 0]) == (
            2,
            {frozenset({0, 1}), frozenset({2})},
        )

    def test_isolated_nodes_without_arcs(self):
        assert partition(5, [1], [3])[0] == 5


class TestLongStructures:
    """Shapes that defeat plain label propagation; answers known in closed form."""

    @pytest.mark.parametrize("step", [1, -1])
    def test_long_cycle(self, step):
        n = 3000
        nodes = np.arange(n)
        assert partition(n, nodes, (nodes + step) % n)[0] == 1

    def test_bidirectional_path(self):
        n = 3000
        nodes = np.arange(n - 1)
        src = np.concatenate([nodes, nodes + 1])
        dst = np.concatenate([nodes + 1, nodes])
        assert partition(n, src, dst)[0] == 1

    @pytest.mark.parametrize("down", [True, False])
    def test_chain_of_two_cycles(self, down):
        pairs = 1500
        low = 2 * np.arange(pairs)
        links = (low[1:] + 1, low[:-1]) if down else (low[:-1] + 1, low[1:])
        src = np.concatenate([low, low + 1, links[0]])
        dst = np.concatenate([low + 1, low, links[1]])
        count, found = partition(2 * pairs, src, dst)
        assert count == pairs
        assert found == {frozenset({int(v), int(v) + 1}) for v in low}

    def test_directed_path(self):
        n = 3000
        nodes = np.arange(n - 1)
        assert partition(n, nodes[::-1], nodes[::-1] + 1)[0] == n
