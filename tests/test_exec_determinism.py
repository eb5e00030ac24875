"""Cross-backend determinism of the execution engine.

The seed-spawn scheme (one entropy draw per batch, one child
``SeedSequence`` per job, assembly by job index) promises **bit-identical
results on every backend at any worker count** for a fixed master seed.
These tests pin that promise at the two levels that matter: raw batches
and the full ``estimate_payoff_table`` fan-out, plus a regression test
that result assembly does not depend on job completion order.
"""

from __future__ import annotations

import pytest

from repro.algorithms import DegreeDiscount, RandomSeeds
from repro.cascade.estimate import SpreadEstimate
from repro.cascade.ic import IndependentCascade
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec import Executor, SpreadJob
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


class _ReversedBackend(SerialBackend):
    """Serial backend that completes jobs in reverse submission order."""

    def map_unordered(self, payloads):
        yield from reversed(list(super().map_unordered(payloads)))


class TestOrderIndependence:
    def test_out_of_order_completion_same_results(self, random_graph):
        model = IndependentCascade(0.15)
        jobs = [
            SpreadJob(graph=random_graph, model=model, seeds=(v,), rounds=5)
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
