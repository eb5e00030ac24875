"""Cross-backend determinism of the execution engine.

The seed-spawn scheme (one entropy draw per batch, one child
``SeedSequence`` per job, assembly by job index) promises **bit-identical
results on every backend at any worker count** for a fixed master seed.
These tests pin that promise at the two levels that matter: raw batches
and the full ``estimate_payoff_table`` fan-out, plus a regression test
that result assembly does not depend on job completion order.
:class:`TestCrossProcessDigest` checks the whole promise end to end, in
fresh interpreters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import DegreeDiscount, RandomSeeds
from repro.cascade.estimate import SpreadEstimate
from repro.cascade.ic import IndependentCascade
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec import CompetitiveJob, Executor, ProfileCell
from repro.exec.backends import SerialBackend
from repro.graphs.generators import erdos_renyi


def _space():
    return StrategySpace([DegreeDiscount(0.2), RandomSeeds()])


def _table(executor):
    return estimate_payoff_table(
        erdos_renyi(50, 200, rng=3),
        IndependentCascade(0.2),
        _space(),
        num_groups=2,
        k=4,
        rounds=8,
        seed_draws=2,
        rng=2015,
        executor=executor,
    )


def _flatten(table):
    return {
        profile: [(e.mean, e.std, e.samples) for e in ests]
        for profile, ests in table.estimates.items()
    }


class TestPayoffTableDeterminism:
    def test_serial_vs_process_two_workers(self):
        serial = _flatten(_table(Executor("serial")))
        with Executor("process", workers=2) as ex:
            process = _flatten(_table(ex))
        assert serial == process

    def test_worker_count_is_irrelevant(self):
        with Executor("process", workers=1) as ex:
            one = _flatten(_table(ex))
        with Executor("process", workers=4) as ex:
            four = _flatten(_table(ex))
        assert one == four


#: One small seeded GetReal query: MixGreedy runs as a selection job, the
#: heuristics draw from the query's generator, and the payoff cells run as
#: competitive jobs.  Prints the digest of the graph fingerprint, every
#: selected seed set and the payoff table, then the backend and workers.
_DIGEST_QUERY = """
import hashlib

import repro
from repro.core import payoff
from repro.exec.executor import default_executor

selections = []
_select_with_pools = payoff.select_with_pools


def _recording(*args, **kwargs):
    selected = _select_with_pools(*args, **kwargs)
    selections.append(selected)
    return selected


payoff.select_with_pools = _recording
graph = repro.hep(scale=0.02)
model = repro.IndependentCascade(0.1)
result = repro.get_real(
    graph,
    model,
    [
        repro.MixGreedy(model, num_snapshots=8),
        repro.DegreeDiscount(0.1),
        repro.RandomSeeds(),
    ],
    num_groups=2,
    k=4,
    rounds=12,
    seed_draws=2,
    rng=2015,
)
state = (
    graph.fingerprint,
    selections,
    sorted(
        (profile, [(e.mean, e.std, e.samples) for e in ests])
        for profile, ests in result.payoff_table.estimates.items()
    ),
)
executor = default_executor()
print(
    hashlib.sha256(repr(state).encode()).hexdigest(),
    executor.backend_name,
    executor.workers,
)
"""


class TestCrossProcessDigest:
    """Bit-identical replay under a seed, across interpreters and backends.

    Each run is a fresh interpreter, so an ambient RNG draw, an
    iteration order that follows ``PYTHONHASHSEED`` or ``id()``, or a job
    payload that does not survive pickling shows as a different digest
    (or a failed run).
    """

    RUNS = [
        ("0", "serial", None),
        ("1", "serial", None),
        ("1", "process", "2"),
    ]

    def test_hash_seeds_and_backends_agree(self):
        src = Path(__file__).resolve().parents[1] / "src"
        base = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        procs = []
        for hash_seed, backend, workers in self.RUNS:
            env = {**base, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
            env["REPRO_BACKEND"] = backend
            if workers is not None:
                env["REPRO_WORKERS"] = workers
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", _DIGEST_QUERY],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(out.split())
        assert [backend for _, backend, _ in outputs] == ["serial", "serial", "process"]
        assert outputs[2][2] == "2"
        digests = [digest for digest, _, _ in outputs]
        assert len(set(digests)) == 1, dict(zip(self.RUNS, digests))


def _spread_job(graph, model, seeds, rounds):
    """The one-cell, one-group job of a single-group spread σ0(seeds)."""
    return CompetitiveJob(
        graph=graph, model=model, cells=(ProfileCell(seed_sets=(seeds,), rounds=rounds),)
    )


class _ReversedBackend(SerialBackend):
    """Serial backend that completes jobs in reverse submission order."""

    def map_unordered(self, payloads):
        yield from reversed(list(super().map_unordered(payloads)))


class TestOrderIndependence:
    def test_out_of_order_completion_same_results(self, random_graph):
        model = IndependentCascade(0.15)
        jobs = [
            _spread_job(random_graph, model, (v,), 5)
            for v in range(8)
        ]
        forward = Executor(SerialBackend()).estimates(jobs, rng=77)
        backward = Executor(_ReversedBackend()).estimates(jobs, rng=77)
        assert forward == backward

    def test_estimate_pooling_is_order_independent(self):
        a = SpreadEstimate.from_values([1.0, 2.0, 3.0])
        b = SpreadEstimate.from_values([10.0, 11.0])
        c = SpreadEstimate.from_values([5.0])
        pooled = SpreadEstimate.from_values([1.0, 2.0, 3.0, 10.0, 11.0, 5.0])
        left = (a + b) + c
        right = a + (b + c)
        swapped = (c + b) + a
        for combo in (left, right, swapped):
            assert combo.samples == pooled.samples
            assert combo.mean == pytest.approx(pooled.mean, rel=1e-12)
            assert combo.std == pytest.approx(pooled.std, rel=1e-12)

    def test_from_values_accepts_ndarray_without_copy(self):
        import numpy as np

        values = np.arange(6, dtype=float)
        est = SpreadEstimate.from_values(values)
        assert est.mean == pytest.approx(2.5)
        assert est.samples == 6
        # float64 input is consumed as-is: asarray must be a no-copy view.
        assert np.asarray(values, dtype=float) is values
