"""Million-node scale-out: mmap GraphStore + O(1) GraphRef payloads.

Exercises the large-graph path end to end at the paper's evaluation scale
(wiki-Talk is 2.4M nodes; this bench defaults to 1M with a heavy-tailed
configuration model so it finishes in CI):

1. generate a >= 1M-node graph, persist it into a :class:`GraphStore`,
   and reopen it memory-mapped;
2. estimate a payoff-tensor cell set (two degree-class strategies, r = 2
   groups, all four profile cells) on the **process** backend with jobs
   built from the mapped graph, which pickles as its O(1) ``GraphRef``,
   under an attached journal;
3. assert from the journal that submit-side payloads stayed O(1) — the
   whole batch pickles in a few KB where raw CSR payloads would cost
   O(n+m) per job — and from the metrics that the snapshot pool stored
   **packed** masks at the expected 8x saving over boolean masks.

The result trajectory is appended to the repo-root
``BENCH_large_graph.json`` through the atomic
:class:`repro.experiments.trajectory.TrajectoryStore` so future PRs can
track the scale-out curve.  ``REPRO_BENCH_LARGE_NODES`` scales the graph
down for smoke runs; the payload assertions hold at every scale (they are
the point: the payload must not grow with the graph).
"""

import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.exec import Executor
from repro.exec.jobs import CompetitiveJob
from repro.experiments.trajectory import TrajectoryStore
from repro.graphs.generators import powerlaw_configuration
from repro.graphs.store import GraphStore
from repro.obs.journal import RunJournal, attached, read_journal
from repro.obs.metrics import counter
from repro.utils.bitset import is_packed, num_words, packed_bytes
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: Default scale: one million nodes, ~2M arcs after symmetrization.
NODES = int(os.environ.get("REPRO_BENCH_LARGE_NODES", "") or 1_000_000)
EDGE_BUDGET = NODES
SEED = 2015
K = 20
ROUNDS = 2
SNAPSHOTS = 4
MODEL = IndependentCascade(0.02)
#: O(1)-payload ceiling per job: a GraphRef + seed tuples + model params.
#: Generous headroom over the observed few hundred bytes, and ~4 orders of
#: magnitude under the O(n+m) cost of pickling the CSR arrays.
MAX_PAYLOAD_PER_JOB = 8192

_TRAJECTORY = TrajectoryStore(
    Path(__file__).parent.parent / "BENCH_large_graph.json"
)

_POOL_MASK_BYTES = counter("cascade.pool_mask_bytes")


def _degree_seeds(graph, k, rng):
    scores = graph.out_degrees().astype(float) + rng.random(graph.num_nodes) * 1e-9
    return tuple(int(v) for v in np.argsort(-scores, kind="stable")[:k])


def _random_seeds(graph, k, rng):
    return tuple(int(v) for v in rng.choice(graph.num_nodes, size=k, replace=False))


def test_large_graph_scale_out(report):
    gen_watch = Stopwatch()
    with gen_watch:
        graph = powerlaw_configuration(NODES, EDGE_BUDGET, rng=SEED)
    assert graph.num_nodes >= NODES

    rows = []
    traj = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "k": K,
        "rounds": ROUNDS,
        "seed": SEED,
    }

    with tempfile.TemporaryDirectory() as tmp:
        store = GraphStore(Path(tmp) / "store")
        save_watch = Stopwatch()
        with save_watch:
            ref = store.save(graph, "bench")
        open_watch = Stopwatch()
        with open_watch:
            mapped = ref.open()
        assert mapped.fingerprint == graph.fingerprint

        # --- payoff-tensor cell set: {deg, rand} x {deg, rand}, r = 2 ---
        rng = as_rng(SEED)
        strategies = {
            "deg": _degree_seeds(mapped, K, rng),
            "rand": _random_seeds(mapped, K, rng),
        }
        cells = [
            (a, b) for a in ("deg", "rand") for b in ("deg", "rand")
        ]
        jobs = [
            CompetitiveJob(
                graph=mapped,
                model=MODEL,
                seed_sets=(strategies[a], strategies[b]),
                rounds=ROUNDS,
            )
            for a, b in cells
        ]
        journal_path = Path(tmp) / "bench.jsonl"
        sim_watch = Stopwatch()
        with RunJournal(journal_path) as journal, attached(journal):
            with Executor("process", workers=2) as executor, sim_watch:
                estimates = executor.estimates(jobs, rng=SEED)
        for (a, b), cell in zip(cells, estimates):
            assert len(cell) == 2
            # mirrored strategies share seeds and split them at collision
            # resolution, so only the cell total is bounded below by k
            assert cell[0].mean + cell[1].mean >= K
            rows.append(
                {
                    "cell": f"{a}-vs-{b}",
                    "p1_spread": round(cell[0].mean, 1),
                    "p2_spread": round(cell[1].mean, 1),
                    "seconds": round(sim_watch.elapsed, 2),
                }
            )

        # --- journal evidence: payloads stayed O(1) per job ---
        starts = [
            e for e in read_journal(journal_path) if e["event"] == "batch_start"
        ]
        assert starts, "process-backend batch left no batch_start event"
        for event in starts:
            assert event["backend"] == "process"
            assert event["payload_bytes"] <= event["jobs"] * MAX_PAYLOAD_PER_JOB, (
                f"batch {event['batch_id']} payload {event['payload_bytes']}B "
                f"exceeds the O(1) ceiling for {event['jobs']} jobs"
            )
        payload_total = sum(e["payload_bytes"] for e in starts)
        csr_bytes = int(
            graph._out_indptr.nbytes
            + graph._out_indices.nbytes
            + graph._in_indptr.nbytes
            + graph._in_indices.nbytes
            + graph._edge_ids.nbytes
        )

        # --- metric evidence: pool masks are packed bitsets ---
        pool = SnapshotPool(mapped)
        pool.token(SEED)
        bytes_before = _POOL_MASK_BYTES.value
        mask_watch = Stopwatch()
        with mask_watch:
            masks = pool.masks(MODEL, SNAPSHOTS)
        mask_bytes = _POOL_MASK_BYTES.value - bytes_before
        assert all(is_packed(m) for m in masks)
        assert mask_bytes == packed_bytes(masks)
        assert mask_bytes == SNAPSHOTS * num_words(graph.num_edges) * 8
        bool_bytes = SNAPSHOTS * graph.num_edges

    traj.update(
        {
            "generate_s": round(gen_watch.elapsed, 2),
            "store_save_s": round(save_watch.elapsed, 2),
            "mmap_open_s": round(open_watch.elapsed, 4),
            "cells_s": round(sim_watch.elapsed, 2),
            "payload_bytes_total": payload_total,
            "payload_bytes_per_job": payload_total // len(jobs),
            "csr_bytes": csr_bytes,
            "pool_mask_bytes": mask_bytes,
            "pool_mask_bool_bytes": bool_bytes,
            "pool_mask_sample_s": round(mask_watch.elapsed, 2),
        }
    )
    _TRAJECTORY.append(traj)
    rows.append(
        {
            "cell": "payload/job",
            "p1_spread": traj["payload_bytes_per_job"],
            "p2_spread": csr_bytes,
            "seconds": round(save_watch.elapsed + open_watch.elapsed, 2),
        }
    )
    report(
        "Large-graph scale-out - 1M-node payoff cells via GraphRef",
        rows,
        note=(
            f"{graph.num_nodes} nodes / {graph.num_edges} arcs; payload "
            f"{traj['payload_bytes_per_job']}B/job vs {csr_bytes}B CSR; "
            f"pool masks packed at {mask_bytes}B vs {bool_bytes}B boolean "
            "(8x)"
        ),
    )
