"""Incremental recomputation: warm delta-repair vs cold reselection at 1M nodes.

The dynamic-graph contract (``docs/dynamic-graphs.md``): after a small edge
delta, an :class:`~repro.incremental.IncrementalSession` must answer the
same seed-selection query **bit-identically** to a cold session on the
patched graph (same stable pool identity, same model, same budget), and
without exhausting the repair budget.

The bench times the three phases on a million-node heavy-tailed graph:
cold session bring-up (sample + reach matrix + CELF), the warm path
(``apply_delta`` + ``reselect``), and a from-scratch cold comparator on the
patched graph, and appends them to the repo-root ``BENCH_incremental.json``
trajectory.  The ``identical`` / ``fallback`` string fields must stay
``"yes"`` / ``"no"`` verbatim, which the experiments gate enforces.

The warm/cold ratio ``cold_reselect_s / warm_s`` is recorded, not
asserted: since the reach DP and the CELF oracle were vectorized, cold
reselection is fast enough that the warm path no longer beats it (about
0.4x at 20k nodes and 0.7x at 1M).  At full scale it is recorded as
``warm_speedup``, so the gate holds each run to the previously recorded
ratio (fails below ``baseline * 0.8``).  Below ``GATED_RATIO_MIN_NODES``
the phases take tens of milliseconds and the ratio spreads wider than that
tolerance (0.37-0.59 over 17 runs at 20k nodes), so it is recorded as the
ungated ``warm_ratio`` and that lineage is gated on ``identical`` /
``fallback`` only.  ``REPRO_BENCH_INCR_NODES`` scales the graph down for
the CI smoke job; the identity assertions hold at every scale.
"""

import os
from datetime import datetime, timezone
from pathlib import Path

from repro.cache import clear_caches
from repro.cascade.ic import IndependentCascade
from repro.experiments.trajectory import TrajectoryStore
from repro.graphs.delta import EdgeDelta
from repro.graphs.generators import powerlaw_configuration
from repro.incremental import IncrementalSession
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: Default scale: one million nodes (~2M arcs after symmetrization).
NODES = int(os.environ.get("REPRO_BENCH_INCR_NODES", "") or 1_000_000)
EDGE_BUDGET = NODES
SEED = 2015
K = 10
SNAPSHOTS = 2
DELTA_EDGES = 5
MODEL = IndependentCascade(0.02)
#: Smallest graph whose warm/cold ratio is stable enough to gate.
GATED_RATIO_MIN_NODES = 100_000

_TRAJECTORY = TrajectoryStore(
    Path(__file__).parent.parent / "BENCH_incremental.json"
)


def _small_delta(graph, rng) -> EdgeDelta:
    """Remove DELTA_EDGES existing arcs, add DELTA_EDGES fresh random ones."""
    src, dst = graph.edge_array()
    idx = rng.choice(graph.num_edges, size=DELTA_EDGES, replace=False)
    removed = [(int(src[i]), int(dst[i])) for i in idx]
    added = []
    while len(added) < DELTA_EDGES:
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes))
        if u != v:
            added.append((u, v))
    return EdgeDelta.of(added=added, removed=removed)


def test_incremental_repair_speedup(report):
    gen_watch = Stopwatch()
    with gen_watch:
        graph = powerlaw_configuration(NODES, EDGE_BUDGET, rng=SEED)

    clear_caches()
    session = IncrementalSession(
        graph,
        MODEL,
        num_snapshots=SNAPSHOTS,
        rng=SEED,
    )
    cold_select_watch = Stopwatch()
    with cold_select_watch:
        cold_seeds = session.select(K)
    assert len(cold_seeds) == K

    delta = _small_delta(graph, as_rng(SEED + 1))
    warm_watch = Stopwatch()
    with warm_watch:
        outcome = session.apply_delta(delta)
        result = session.reselect(K)
    assert len(result.seeds) == K

    # Cold comparator: a fresh session with the same stable pool identity
    # on the patched graph recomputes everything from scratch.
    clear_caches()
    comparator = IncrementalSession(
        session.graph,
        MODEL,
        num_snapshots=SNAPSHOTS,
        pool_seed=session.pool_seed,
    )
    cold_reselect_watch = Stopwatch()
    with cold_reselect_watch:
        cold_repaired = comparator.select(K)

    identical = list(result.seeds) == cold_repaired
    speedup = cold_reselect_watch.elapsed / warm_watch.elapsed
    assert identical, (
        f"warm repair diverged from cold reselection: "
        f"{list(result.seeds)} != {cold_repaired}"
    )
    assert not result.fallback, "repair budget unexpectedly exhausted"

    inv = outcome.invalidation
    ratio_key = (
        "warm_speedup" if graph.num_nodes >= GATED_RATIO_MIN_NODES else "warm_ratio"
    )
    traj = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "k": K,
        "snapshots": SNAPSHOTS,
        "seed": SEED,
        "delta_edges": 2 * DELTA_EDGES,
        "generate_s": round(gen_watch.elapsed, 2),
        "cold_select_s": round(cold_select_watch.elapsed, 2),
        "warm_repair_s": round(warm_watch.elapsed, 3),
        "cold_reselect_s": round(cold_reselect_watch.elapsed, 2),
        ratio_key: round(speedup, 2),
        "dirty_shards": len(inv.dirty_shards),
        "num_shards": inv.num_shards,
        "repair_depth": result.repair_depth,
        "repair_evaluations": result.evaluations,
        "affected_rows": sum(outcome.affected_counts),
        "identical": "yes" if identical else "no",
        "fallback": "yes" if result.fallback else "no",
    }
    _TRAJECTORY.append(traj)
    report(
        "Incremental delta-repair vs cold reselection",
        [
            {
                "phase": "cold select (session bring-up)",
                "seconds": round(cold_select_watch.elapsed, 2),
            },
            {
                "phase": "warm apply_delta + reselect",
                "seconds": round(warm_watch.elapsed, 3),
            },
            {
                "phase": "cold reselection (comparator)",
                "seconds": round(cold_reselect_watch.elapsed, 2),
            },
        ],
        note=(
            f"{graph.num_nodes} nodes / {graph.num_edges} arcs; "
            f"{2 * DELTA_EDGES}-edge delta dirtied "
            f"{len(inv.dirty_shards)}/{inv.num_shards} shards, "
            f"{sum(outcome.affected_counts)} reach rows recomputed; "
            f"repair depth {result.repair_depth}; cold/warm time ratio "
            f"{speedup:.2f}, seeds identical: {traj['identical']}"
        ),
    )
