"""Smoke test for the large-graph scale-out path.

Builds a heavy-tailed configuration-model graph (``--nodes``, default
100k; the paper's wiki-Talk is 2.4M nodes), persists it into a
memory-mapped :class:`~repro.graphs.store.GraphStore`, reopens it, and
runs a payoff cell batch — one spread job plus the four
{degree, random}² competitive cells of an r = 2 tensor — on the
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
  selection work on the mapped graph — the block-diagonal reach DP behind
  ``pool.initial_gains`` over ``GAINS_SNAPSHOTS`` snapshots and CELF up to
  its second pick, the first that needs the batched oracle sweep — on a
  serial executor, so their memory counts in this process's peak.

Run from the repo root::

    PYTHONPATH=src python tools/large_graph_smoke.py [--nodes 1000000]
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms.greedy import run_celf
from repro.cascade.ic import IndependentCascade
from repro.cascade.pools import SnapshotPool
from repro.exec import Executor
from repro.exec.jobs import CompetitiveJob, SpreadJob
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
        cells = [(a, b) for a in strategies for b in strategies]
        jobs = [
            SpreadJob(graph=mapped, model=model, seeds=strategies["deg"], rounds=ROUNDS)
        ] + [
            CompetitiveJob(
                graph=mapped,
                model=model,
                seed_sets=(strategies[a], strategies[b]),
                rounds=ROUNDS,
            )
            for a, b in cells
        ]
        journal_path = Path(tmp) / "smoke.jsonl"
        with RunJournal(journal_path) as journal, attached(journal):
            with Executor("process", workers=2) as executor:
                estimates = executor.estimates(jobs, rng=SEED)
        assert estimates[0][0].mean >= K
        for (a, b), cell in zip(cells, estimates[1:]):
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

        with Executor("serial") as serial:
            gains = pool.initial_gains(model, GAINS_SNAPSHOTS, serial)
        assert len(gains) == mapped.num_nodes and min(gains) >= 1.0
        picks, _ = run_celf(pool.oracle(model, GAINS_SNAPSHOTS), 2, gains)
        assert len(set(picks)) == 2

    rss = peak_rss_mb()
    assert rss <= MAX_RSS_MB, (
        f"peak RSS {rss:.0f}MiB exceeds the {MAX_RSS_MB}MiB ceiling"
    )
    print(
        f"large-graph smoke OK: {nodes} nodes, {per_job:.0f}B/job payload "
        f"(CSR {csr_bytes}B), packed pool masks ({counted}B for "
        f"{MASK_SNAPSHOTS} snapshots vs {MASK_SNAPSHOTS * num_edges}B "
        f"boolean), {GAINS_SNAPSHOTS}-snapshot gains + CELF picks {picks}, "
        f"peak RSS {rss:.0f}MiB <= {MAX_RSS_MB}MiB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
