"""Synthetic graph generators.

The paper evaluates on two academic collaboration networks (Hep, Phy) served
from a now-dead Microsoft Research URL and on SNAP's wiki-Talk.  This
environment has no network access, so :mod:`repro.graphs.datasets` builds
*surrogates* with these generators:

* :func:`powerlaw_configuration` — heavy-tailed configuration model used for
  the collaboration surrogates (undirected, symmetrized);
* :func:`copying_model` — Kleinberg-style copying model used for the
  wiki-Talk surrogate (directed, extreme in-degree skew);
* :func:`erdos_renyi` — the uniform random baseline used in tests;
* :func:`karate_like_fixture` — a small deterministic graph for unit tests.

All generators take the library-wide ``rng`` argument (seed / Generator /
None) and are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int, check_probability


def _powerlaw_degrees(
    n: int,
    target_sum: int,
    exponent: float,
    rng: np.random.Generator,
    min_degree: int = 1,
) -> np.ndarray:
    """Sample a degree sequence ``d_i >= min_degree`` with ``sum d_i == target_sum``.

    Degrees follow a discrete power law ``P(d) ~ d^{-exponent}`` (inverse
    transform sampling), rescaled multiplicatively so the total matches the
    requested edge budget, then adjusted by +/-1 steps to hit it exactly.
    """
    if target_sum < n * min_degree:
        raise GraphError(
            f"target_sum={target_sum} cannot support {n} nodes of "
            f"min_degree={min_degree}"
        )
    u = rng.random(n)
    raw = min_degree * u ** (-1.0 / (exponent - 1.0))
    cap = max(min_degree + 1, int(np.sqrt(2.0 * target_sum)))
    raw = np.minimum(raw, cap)

    scale = target_sum / raw.sum()
    degrees = np.maximum(min_degree, np.round(raw * scale)).astype(np.int64)

    # Fix up the residual one unit at a time, touching random nodes.
    diff = int(target_sum - degrees.sum())
    while diff != 0:
        idx = rng.integers(0, n, size=abs(diff))
        if diff > 0:
            np.add.at(degrees, idx, 1)
            diff = int(target_sum - degrees.sum())
        else:
            for i in idx:
                if degrees[i] > min_degree:
                    degrees[i] -= 1
            diff = int(target_sum - degrees.sum())
    return degrees


def powerlaw_configuration(
    num_nodes: int,
    num_edges: int,
    exponent: float = 2.4,
    rng: RandomSource = None,
) -> DiGraph:
    """Heavy-tailed undirected configuration model, symmetrized to a DiGraph.

    *num_edges* is the undirected edge budget; the result has roughly
    ``2 * num_edges`` arcs (slightly fewer after removing the self-loops and
    multi-edges the stub-matching step produces).

    Used for the Hep/Phy collaboration surrogates.
    """
    n = check_positive_int(num_nodes, "num_nodes")
    m = check_positive_int(num_edges, "num_edges")
    if exponent <= 1.0:
        raise GraphError(f"exponent must exceed 1, got {exponent}")
    generator = as_rng(rng)

    degrees = _powerlaw_degrees(n, 2 * m, exponent, generator)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    generator.shuffle(stubs)
    src = stubs[0::2]
    dst = stubs[1::2]
    # DiGraph's constructor removes self-loops and duplicates; symmetrize
    # first so deduplication sees both orientations.
    return DiGraph.from_arrays(n, np.concatenate([src, dst]), np.concatenate([dst, src]))


def community_powerlaw(
    num_nodes: int,
    num_edges: int,
    num_communities: int | None = None,
    mixing: float = 0.08,
    exponent: float = 2.4,
    rng: RandomSource = None,
) -> DiGraph:
    """Power-law configuration model with planted community structure.

    Nodes are partitioned into communities; each node's power-law degree
    stubs are matched *within its community* with probability
    ``1 - mixing`` and in a global pool otherwise.  The result combines the
    heavy-tailed degrees of :func:`powerlaw_configuration` with the high
    clustering of real collaboration networks — the property that makes
    greedy seed selection diversify across communities while degree
    heuristics pile onto co-located hubs.  Used for the Hep/Phy surrogates.

    Stub matching inside dense communities collapses some multi-edges; a
    compensation loop tops the budget back up, so the undirected edge count
    lands within a few percent of *num_edges* (the result has about twice
    that many arcs after symmetrization).
    """
    n = check_positive_int(num_nodes, "num_nodes")
    m = check_positive_int(num_edges, "num_edges")
    mixing = check_probability(mixing, "mixing")
    if exponent <= 1.0:
        raise GraphError(f"exponent must exceed 1, got {exponent}")
    if num_communities is None:
        num_communities = max(2, n // 50)
    c = check_positive_int(num_communities, "num_communities")
    generator = as_rng(rng)

    community = generator.integers(0, c, size=n)
    chosen: set[tuple[int, int]] = set()

    members: list[np.ndarray] = [
        np.flatnonzero(community == cid) for cid in range(c)
    ]

    def top_up(budget: int) -> None:
        """Small deficit pass: direct community-biased pair sampling."""
        for _ in range(budget):
            u = int(generator.integers(0, n))
            own = members[community[u]]
            if own.size > 1 and generator.random() >= mixing:
                v = int(own[generator.integers(0, own.size)])
            else:
                v = int(generator.integers(0, n))
            if u != v:
                chosen.add((u, v) if u < v else (v, u))

    def matched_pairs(budget: int) -> None:
        """Sample ~budget undirected edges via community-aware stub matching."""
        if 2 * budget < n:
            top_up(budget)
            return
        degrees = _powerlaw_degrees(n, 2 * budget, exponent, generator)
        stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
        is_global = generator.random(stubs.size) < mixing
        pools = [stubs[is_global]]
        local = stubs[~is_global]
        pools.extend(local[community[local] == cid] for cid in range(c))
        for pool in pools:
            if pool.size < 2:
                continue
            pool = pool.copy()
            generator.shuffle(pool)
            half = pool.size // 2
            for u, v in zip(pool[:half], pool[half: 2 * half]):
                u, v = int(u), int(v)
                if u != v:
                    chosen.add((u, v) if u < v else (v, u))

    matched_pairs(m)
    # Dense communities collapse multi-edges; top the budget back up.
    for _ in range(4):
        deficit = m - len(chosen)
        if deficit <= max(4, m // 100):
            break
        matched_pairs(deficit)

    return DiGraph.from_undirected(n, np.array(sorted(chosen), dtype=np.int64))


def copying_model(
    num_nodes: int,
    out_edges: int = 2,
    copy_probability: float = 0.7,
    rng: RandomSource = None,
) -> DiGraph:
    """Kleinberg copying model: directed, extreme in-degree skew.

    Each arriving node picks a random *prototype* and creates *out_edges*
    arcs; each arc copies one of the prototype's out-neighbours with
    probability *copy_probability*, otherwise points at a uniform existing
    node.  In-degree follows a power law with exponent controlled by the
    copy probability — the regime of talk-page graphs like wiki-Talk.

    A clique on the first ``out_edges + 1`` nodes boots the process, so
    every node's out-list holds exactly *out_edges* entries (copied and
    uniform targets are always lower-numbered, never the node itself).  The
    out-lists are therefore one ``(n, out_edges)`` table, a copied entry is
    a pointer to an entry of its prototype's row, and pointer jumping
    resolves every copy chain at once.  Duplicate entries collapse into one
    arc.
    """
    n = check_positive_int(num_nodes, "num_nodes")
    c = check_positive_int(out_edges, "out_edges")
    beta = check_probability(copy_probability, "copy_probability")
    generator = as_rng(rng)
    boot = min(c + 1, n)
    clique = np.arange(boot - 1)[None, :]
    clique = clique + (clique >= np.arange(boot)[:, None])
    if n == boot:
        src = np.repeat(np.arange(boot, dtype=np.int32), boot - 1)
        return DiGraph.from_arrays(n, src, clique.ravel())

    v = np.arange(boot, n, dtype=np.int64)
    proto = generator.integers(0, v)
    copied = generator.random((v.size, c)) < beta
    slot = generator.integers(0, c, size=(v.size, c))

    # Entry (u, j) of the table is flat index u*c + j.  A root holds its
    # target; a copied entry points at (proto, slot) until resolved.  The
    # copy draws are spent before the uniform draw is made, so they are
    # never alive together; the draw order itself is fixed by the seed.
    ptr = np.arange(n * c, dtype=np.int64)
    slot += proto[:, None] * c
    np.copyto(ptr[boot * c:].reshape(-1, c), slot, where=copied)
    del proto, copied, slot
    uniform = generator.integers(0, v[:, None], size=(v.size, c))
    del v
    targets = np.concatenate([clique.ravel(), uniform.ravel()], dtype=np.int32)
    del uniform
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            break
        ptr = jumped
    del jumped
    dst = targets[ptr]
    del targets, ptr
    src = np.repeat(np.arange(n, dtype=np.int32), c)
    return DiGraph.from_arrays(n, src, dst)


def erdos_renyi(
    num_nodes: int,
    num_edges: int,
    rng: RandomSource = None,
) -> DiGraph:
    """Directed G(n, m): *num_edges* arcs sampled uniformly without replacement."""
    n = check_positive_int(num_nodes, "num_nodes")
    m = check_positive_int(num_edges, "num_edges")
    max_edges = n * (n - 1)
    if m > max_edges:
        raise GraphError(f"num_edges={m} exceeds the maximum {max_edges} for n={n}")
    generator = as_rng(rng)

    chosen: set[int] = set()
    # Rejection sampling: encode (u, v) as u * n + v.
    while len(chosen) < m:
        need = m - len(chosen)
        codes = generator.integers(0, n * n, size=max(2 * need, 16))
        for code in codes:
            u, v = divmod(int(code), n)
            if u != v:
                chosen.add(u * n + v)
            if len(chosen) == m:
                break
    src, dst = np.divmod(np.fromiter(chosen, dtype=np.int64, count=m), n)
    return DiGraph.from_arrays(n, src, dst)


#: Zachary's karate club, hard-coded so tests never depend on networkx data.
_KARATE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2),
    (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30), (2, 3),
    (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32), (3, 7),
    (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16), (6, 16),
    (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
)


def karate_like_fixture() -> DiGraph:
    """Zachary's karate club (34 nodes, 78 undirected edges), symmetrized.

    A deterministic, well-studied small graph used throughout the test suite
    and the quickstart example.
    """
    return DiGraph.from_undirected(34, _KARATE_EDGES)
