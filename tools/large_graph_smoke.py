"""Smoke test for the large-graph scale-out path.

Builds a heavy-tailed configuration-model graph (``--nodes``, default
100k; the paper's wiki-Talk is 2.4M nodes), persists it into a
memory-mapped :class:`~repro.graphs.store.GraphStore`, reopens it, and
runs a payoff cell batch — one single-group spread (a one-group cell)
plus the four {degree, random}² competitive cells of an r = 2 tensor — on the
**process** backend with jobs built from the mmap-opened graph, which
pickles as its O(1) ``GraphRef``.  It asserts the scale-out invariants:

* **faithful store** — the mapped graph has the original's fingerprint;
* **O(1) payloads** — every submitted batch pickles in under
  ``MAX_PAYLOAD_PER_JOB`` bytes per job, regardless of graph size (the
  journal's ``batch_start.payload_bytes`` is the evidence);
* **packed masks** — snapshot pools store packed bitsets, and the
  ``cascade.pool_mask_bytes`` metric counts exactly their 8x-smaller
  footprint;
* **bounded memory** — peak RSS of the whole run stays under
  ``MAX_RSS_MB``; the CSR arrays are read through the mmap, and nothing
  O(n+m) rides inside job payloads.  The run includes MixGreedy's
  selection work on the mapped graph — the reach closure behind
  ``pool.initial_gains`` over ``GAINS_SNAPSHOTS`` snapshots, and CELF's
  ``K`` picks gathered from it — in this process, so the closure counts
  in its peak (its bytes are printed);
* **selection jobs** — one pooled MixGreedy selection batch (one job per
  group pool) on the 2-worker process executor pickles each job as its
  ``GraphRef``, the selector's parameters and the pool token, with no
  masks (O(1)), and picks the seeds of the serial batch.

Run from the repo root::

    PYTHONPATH=src python tools/large_graph_smoke.py [--nodes 500000]

At 500k nodes the run peaks near 240 MiB, so the ceiling catches a
doubling of its memory.  At 1M nodes it peaks around 440 MiB with
run-to-run noise of about 50 MiB either way, too close to the ceiling
for a pass or a failure to mean anything.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms.base import select_with_pools
from repro.algorithms.greedy import MixGreedy, run_celf
from repro.cache import clear_caches
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.exec import Executor
from repro.exec.jobs import CompetitiveJob, ProfileCell
from repro.graphs.generators import powerlaw_configuration
from repro.graphs.store import GraphStore, clear_handle_cache
from repro.obs.journal import RunJournal, attached, read_journal
from repro.obs.metrics import counter
from repro.utils.bitset import is_packed, num_words, packed_bytes
from repro.utils.rng import as_rng

SEED = 2015
K = 10
ROUNDS = 2
MASK_SNAPSHOTS = 4
#: O(1)-payload ceiling per job: a GraphRef + seed tuples + model params.
#: Generous headroom over the observed few hundred bytes, and orders of
#: magnitude under the O(n+m) cost of pickling the CSR arrays.
MAX_PAYLOAD_PER_JOB = 8192
MAX_RSS_MB = 512
GAINS_SNAPSHOTS = 8
WORKERS = 2
SELECTION_GROUPS = 2


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: ru_maxrss is KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024 if sys.platform != "darwin" else 1024 * 1024
    return usage / divisor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes", type=int, default=100_000,
        help="graph size (default: %(default)s)",
    )
    nodes = parser.parse_args(argv).nodes
    graph = powerlaw_configuration(nodes, nodes, rng=SEED)
    assert graph.num_nodes >= nodes
    model = IndependentCascade(0.02)
    mask_bytes = counter("cascade.pool_mask_bytes")

    with tempfile.TemporaryDirectory() as tmp:
        store = GraphStore(Path(tmp) / "store")
        ref = store.save(graph, "smoke")
        fingerprint = graph.fingerprint
        num_edges = graph.num_edges
        csr_bytes = int(
            graph._out_indptr.nbytes
            + graph._out_indices.nbytes
            + graph._in_indptr.nbytes
            + graph._in_indices.nbytes
            + graph._edge_ids.nbytes
        )
        del graph
        clear_handle_cache()
        mapped = ref.open()
        assert mapped.fingerprint == fingerprint, "store round trip changed the graph"

        rng = as_rng(SEED)
        degrees = mapped.out_degrees() + rng.random(mapped.num_nodes) * 1e-9
        strategies = {
            "deg": tuple(int(v) for v in np.argsort(-degrees, kind="stable")[:K]),
            "rand": tuple(
                int(v) for v in rng.choice(mapped.num_nodes, size=K, replace=False)
            ),
        }
        # The single-group spread of "deg" is its one-group cell.
        cells = [("deg",)] + [(a, b) for a in strategies for b in strategies]
        jobs = [
            CompetitiveJob(
                graph=mapped,
                model=model,
                cells=(
                    ProfileCell(seed_sets=tuple(strategies[s] for s in cell), rounds=ROUNDS),
                ),
            )
            for cell in cells
        ]
        journal_path = Path(tmp) / "smoke.jsonl"
        with RunJournal(journal_path) as journal, attached(journal):
            with Executor("process", workers=2) as executor:
                estimates = executor.estimates(jobs, rng=SEED)
        assert estimates[0][0].mean >= K
        for (a, b), cell in zip(cells[1:], estimates[1:]):
            # mirrored strategies share seeds and split them at collision
            # resolution, so only the cell total is bounded below by k
            assert len(cell) == 2 and cell[0].mean + cell[1].mean >= K, (a, b)

        starts = [
            e for e in read_journal(journal_path) if e["event"] == "batch_start"
        ]
        assert starts, "no batch_start journaled on the process backend"
        for event in starts:
            assert event["backend"] == "process"
            per_job = event["payload_bytes"] / event["jobs"]
            assert per_job <= MAX_PAYLOAD_PER_JOB, (
                f"batch {event['batch_id']} payload {per_job:.0f}B/job exceeds "
                f"the O(1) ceiling {MAX_PAYLOAD_PER_JOB}B (CSR would be "
                f"{csr_bytes}B)"
            )

        pool = SnapshotPool(mapped)
        pool.token(SEED)
        bytes_before = mask_bytes.value
        masks = pool.masks(model, MASK_SNAPSHOTS)
        assert all(is_packed(m) for m in masks), "pool masks are not packed"
        counted = mask_bytes.value - bytes_before
        assert counted == packed_bytes(masks) == (
            MASK_SNAPSHOTS * num_words(num_edges) * 8
        ), f"pool mask bytes {counted} are not the packed footprint"

        gains = pool.initial_gains(model, GAINS_SNAPSHOTS)
        assert len(gains) == mapped.num_nodes and min(gains) >= 1.0
        oracle = pool.oracle(model, GAINS_SNAPSHOTS)
        closure_bytes = oracle.closure.nbytes
        picks, _ = run_celf(oracle, K, gains)
        assert len(set(picks)) == K
        del gains, oracle

        # One pooled MixGreedy selection per group pool, as one batch of
        # selection jobs; the memo is cleared so the serial batch recomputes.
        mixgreedy = MixGreedy(model, GAINS_SNAPSHOTS)

        def select_batch(executor: Executor) -> list[list[list[int]]]:
            clear_caches()
            pools = [SnapshotPool(mapped) for _ in range(SELECTION_GROUPS)]
            return select_with_pools(mapped, K, [mixgreedy], pools, as_rng(SEED), executor)

        selection_journal = Path(tmp) / "selection.jsonl"
        with RunJournal(selection_journal) as journal, attached(journal):
            with Executor("process", workers=WORKERS) as executor:
                selected = select_batch(executor)
        with Executor("serial") as serial:
            assert selected == select_batch(serial), (
                "process-backend selection jobs picked other seeds than serial"
            )
        (event,) = [
            e for e in read_journal(selection_journal) if e["event"] == "batch_start"
        ]
        assert event["jobs"] == SELECTION_GROUPS, (
            f"selection batch has {event['jobs']} jobs, not one per group pool"
        )
        selection_per_job = event["payload_bytes"] / event["jobs"]
        assert selection_per_job <= MAX_PAYLOAD_PER_JOB, (
            f"selection payload {selection_per_job:.0f}B/job exceeds the O(1) "
            f"ceiling {MAX_PAYLOAD_PER_JOB}B (masks would be "
            f"{GAINS_SNAPSHOTS * num_words(num_edges) * 8}B, CSR {csr_bytes}B)"
        )

    rss = peak_rss_mb()
    assert rss <= MAX_RSS_MB, (
        f"peak RSS {rss:.0f}MiB exceeds the {MAX_RSS_MB}MiB ceiling"
    )
    print(
        f"large-graph smoke OK: {nodes} nodes, {per_job:.0f}B/job payload "
        f"(CSR {csr_bytes}B), packed pool masks ({counted}B for "
        f"{MASK_SNAPSHOTS} snapshots vs {MASK_SNAPSHOTS * num_edges}B "
        f"boolean), {GAINS_SNAPSHOTS}-snapshot closure of {closure_bytes}B, "
        f"gains + CELF picks {picks}, "
        f"{SELECTION_GROUPS} MixGreedy selection jobs identical to serial "
        f"({selection_per_job:.0f}B/job), peak RSS {rss:.0f}MiB <= {MAX_RSS_MB}MiB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
