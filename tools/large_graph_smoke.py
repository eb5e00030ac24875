"""CI smoke test for the large-graph scale-out path.

Builds a ~100k-node graph, persists it into a memory-mapped
:class:`~repro.graphs.store.GraphStore`, then runs a payoff cell batch on
the **process** backend with jobs built from the mmap-opened graph — which
pickles as its O(1) ``GraphRef`` — and asserts the two scale-out
invariants:

* **O(1) payloads** — every submitted job pickles in under
  ``MAX_PAYLOAD_PER_JOB`` bytes, regardless of graph size (the journal's
  ``batch_start.payload_bytes`` is the evidence);
* **bounded memory** — peak RSS of the whole run stays under
  ``MAX_RSS_MB``; the CSR arrays are read through the mmap, snapshot pools
  store packed bitsets, and nothing O(n+m) rides inside job payloads.  The
  run includes MixGreedy's selection work on the mapped graph — the
  block-diagonal reach DP behind ``pool.initial_gains`` over
  ``GAINS_SNAPSHOTS`` snapshots and CELF up to its second pick, the first
  that needs the batched oracle sweep — on a serial executor, so their
  memory counts in this process's peak.

Run from the repo root::

    PYTHONPATH=src python tools/large_graph_smoke.py
"""

from __future__ import annotations

import resource
import sys
import tempfile
from pathlib import Path

from repro.algorithms.greedy import run_celf
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.exec import Executor
from repro.exec.jobs import CompetitiveJob, SpreadJob
from repro.graphs.generators import powerlaw_configuration
from repro.graphs.store import GraphStore, clear_handle_cache
from repro.obs.journal import RunJournal, attached, read_journal
from repro.utils.bitset import is_packed

NODES = 100_000
SEED = 2015
K = 10
ROUNDS = 2
MAX_PAYLOAD_PER_JOB = 8192
MAX_RSS_MB = 512
GAINS_SNAPSHOTS = 8


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: ru_maxrss is KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024 if sys.platform != "darwin" else 1024 * 1024
    return usage / divisor


def main() -> int:
    graph = powerlaw_configuration(NODES, NODES, rng=SEED)
    model = IndependentCascade(0.02)
    seeds = tuple(range(K))

    with tempfile.TemporaryDirectory() as tmp:
        store = GraphStore(Path(tmp) / "store")
        ref = store.save(graph, "smoke")
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

        jobs = [
            SpreadJob(graph=mapped, model=model, seeds=seeds, rounds=ROUNDS),
            CompetitiveJob(
                graph=mapped,
                model=model,
                seed_sets=(seeds, tuple(range(K, 2 * K))),
                rounds=ROUNDS,
            ),
        ]
        journal_path = Path(tmp) / "smoke.jsonl"
        with RunJournal(journal_path) as journal, attached(journal):
            with Executor("process", workers=2) as executor:
                estimates = executor.estimates(jobs, rng=SEED)
        assert len(estimates) == 2 and estimates[0][0].mean >= K

        starts = [
            e for e in read_journal(journal_path) if e["event"] == "batch_start"
        ]
        assert starts, "no batch_start journaled on the process backend"
        per_job = starts[0]["payload_bytes"] / starts[0]["jobs"]
        assert per_job <= MAX_PAYLOAD_PER_JOB, (
            f"payload {per_job:.0f}B/job exceeds the O(1) ceiling "
            f"{MAX_PAYLOAD_PER_JOB}B (CSR would be {csr_bytes}B)"
        )

        pool = SnapshotPool(mapped)
        pool.token(SEED)
        masks = pool.masks(model, 4)
        assert all(is_packed(m) for m in masks), "pool masks are not packed"

        with Executor("serial") as serial:
            gains = pool.initial_gains(model, GAINS_SNAPSHOTS, serial)
        assert len(gains) == NODES and min(gains) >= 1.0
        picks, _ = run_celf(pool.oracle(model, GAINS_SNAPSHOTS), 2, gains)
        assert len(set(picks)) == 2

    rss = peak_rss_mb()
    assert rss <= MAX_RSS_MB, (
        f"peak RSS {rss:.0f}MiB exceeds the {MAX_RSS_MB}MiB ceiling"
    )
    print(
        f"large-graph smoke OK: {NODES} nodes, {per_job:.0f}B/job payload "
        f"(CSR {csr_bytes}B), packed pool masks, {GAINS_SNAPSHOTS}-snapshot "
        f"gains + CELF picks {picks}, peak RSS {rss:.0f}MiB "
        f"<= {MAX_RSS_MB}MiB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
