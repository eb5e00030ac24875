"""Pure-Python reference walks of the diffusion kernels.

Each function here is the plain node-by-node, edge-by-edge version of a
kernel in :mod:`repro.cascade.kernels`, written to be audited line by line
against Section 3.2 of the paper.  The production kernels are vectorized
and consume randomness in a different order, so they are compared with
these walks statistically (``tests/test_kernel_equivalence.py``), never
bit for bit.  :func:`tarjan_components` is the textbook oracle for the
numpy SCC of :mod:`repro.cascade.reachability` (``tests/test_cascade_scc.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cascade.competitive import TieBreakRule
from repro.cascade.kernels import ClaimRule
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph


def assign_initiators(
    num_nodes: int,
    seed_sets: Sequence[Sequence[int]],
    tie_break: TieBreakRule,
    generator: np.random.Generator,
) -> list[list[int]]:
    """Resolve seed collisions of one round, seed by seed (Section 3.2).

    A seed selected only by group *i* initiates for *i*; a seed selected by
    several groups initiates for exactly one of them: uniformly, or under
    PROPORTIONAL weighted by each selecting group's count of uncontested
    seeds (uniformly when those weights are all zero).
    """
    r = len(seed_sets)
    selectors: dict[int, list[int]] = {}
    for i, seeds in enumerate(seed_sets):
        for s in seeds:
            if not 0 <= s < num_nodes:
                raise CascadeError(f"seed {s} out of range [0, {num_nodes})")
            groups = selectors.setdefault(int(s), [])
            if i not in groups:
                groups.append(i)

    exclusive = np.zeros(r, dtype=float)
    for groups in selectors.values():
        if len(groups) == 1:
            exclusive[groups[0]] += 1.0
    initiators: list[list[int]] = [[] for _ in range(r)]
    for node, groups in selectors.items():
        if len(groups) == 1:
            winner = groups[0]
        else:
            weights = np.array([exclusive[g] for g in groups])
            if tie_break is TieBreakRule.UNIFORM or weights.sum() == 0:
                winner = groups[int(generator.integers(0, len(groups)))]
            else:
                weights = weights / weights.sum()
                winner = groups[int(generator.choice(len(groups), p=weights))]
        initiators[winner].append(node)
    return initiators


def claim_group(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> int:
    """Pick the claiming group for one node given per-group attempt weights."""
    total = weights.sum()
    if claim_rule is ClaimRule.PROPORTIONAL:
        return int(generator.choice(weights.shape[0], p=weights / total))
    best = weights.max()
    winners = np.flatnonzero(weights == best)
    return int(winners[generator.integers(0, winners.shape[0])])


def competitive_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive cascade; returns ``(owner, rounds, activation_round)``."""
    r = len(initiators)
    owner = np.full(graph.num_nodes, -1, dtype=np.int64)
    when = np.zeros(graph.num_nodes, dtype=np.int64)
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        # attempts[v] = (per-group counts, running product of (1 - p)).
        attempts: dict[int, tuple[np.ndarray, float]] = {}
        for j in range(r):
            for u in frontiers[j]:
                for v, eid in zip(graph.out_neighbors(u), graph.out_edge_ids(u)):
                    if owner[v] >= 0:
                        continue
                    counts, survive = attempts.get(
                        int(v), (np.zeros(r, dtype=np.int64), 1.0)
                    )
                    counts[j] += 1
                    attempts[int(v)] = (counts, survive * (1.0 - probs[eid]))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        for v, (counts, survive) in attempts.items():
            # Combined activation probability 1 - Π(1 - p_e) over all
            # attempting edges: 1 - (1 - p)^T for uniform p (Section 3.2).
            if generator.random() < 1.0 - survive:
                winner = claim_group(counts.astype(float), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
    return owner, rounds, when


def competitive_threshold(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive LT diffusion; returns ``(owner, rounds, activation_round)``."""
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner = np.full(n, -1, dtype=np.int64)
    when = np.zeros(n, dtype=np.int64)
    pressure = np.zeros((n, r))
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        touched: set[int] = set()
        for j in range(r):
            for u in frontiers[j]:
                for v in graph.out_neighbors(u):
                    if owner[v] < 0:
                        pressure[v, j] += weight_in[v]
                        touched.add(int(v))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        for v in sorted(touched):
            if pressure[v].sum() >= thresholds[v]:
                winner = claim_group(pressure[v].copy(), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
    return owner, rounds, when


def simulate_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group cascade from *seeds*; returns the active-node mask."""
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < graph.num_nodes:
            raise CascadeError(f"seed {s} out of range [0, {graph.num_nodes})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            nbrs = graph.out_neighbors(u)
            if nbrs.size == 0:
                continue
            hits = generator.random(nbrs.size) < probs[graph.out_edge_ids(u)]
            for v in nbrs[hits]:
                if not active[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def simulate_threshold(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group LT diffusion from *seeds*; returns the active-node mask."""
    n = graph.num_nodes
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < n:
            raise CascadeError(f"seed {s} out of range [0, {n})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            for v in graph.out_neighbors(u):
                if active[v]:
                    continue
                pressure[v] += weight_in[v]
                if pressure[v] >= thresholds[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def tarjan_components(num_nodes: int, arcs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Strongly connected components by Tarjan's recursive algorithm (1972).

    Returns every component as a sorted node list, in the order Tarjan
    completes them (reverse topological).  Recursion depth is the longest
    DFS path, so this is for small graphs only.
    """
    successors: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in arcs:
        successors[u].append(v)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []

    def visit(v: int) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in successors[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            components.append(sorted(component))

    for v in range(num_nodes):
        if v not in index:
            visit(v)
    return components
