"""Tests for the opt-in runtime contracts (repro.contracts)."""

import numpy as np
import pytest

from repro.cascade.competitive import CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.simulate import estimate_competitive_spread, estimate_spread
from repro.config import CONTRACTS_ENV_VAR
from repro.graphs.generators import karate_like_fixture
from repro.contracts import (
    ContractViolation,
    check_ownership,
    check_probabilities,
    check_spread_estimate,
    check_spreads,
    enabled,
)


@pytest.fixture
def contracts_on(monkeypatch):
    monkeypatch.setenv(CONTRACTS_ENV_VAR, "1")


@pytest.fixture
def contracts_off(monkeypatch):
    monkeypatch.delenv(CONTRACTS_ENV_VAR, raising=False)


class TestEnabledGate:
    def test_disabled_by_default(self, contracts_off):
        assert not enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "TRUE"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(CONTRACTS_ENV_VAR, value)
        assert enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", " "])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(CONTRACTS_ENV_VAR, value)
        assert not enabled()


class TestCheckProbabilities:
    def test_accepts_valid(self):
        check_probabilities(np.array([0.0, 0.5, 1.0]))

    def test_accepts_empty(self):
        check_probabilities(np.array([]))

    def test_rejects_above_one(self):
        with pytest.raises(ContractViolation, match=r"outside \[0, 1\]"):
            check_probabilities(np.array([0.2, 1.5]), "edge probabilities")

    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            check_probabilities([-0.1, 0.5])

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation, match="non-finite"):
            check_probabilities([np.nan])


class TestCheckOwnership:
    def test_accepts_consistent_outcome(self):
        owner = np.array([0, 1, -1, 0])
        check_ownership(owner, [[0, 3], [1]], num_groups=2)

    def test_rejects_switched_initiator(self):
        owner = np.array([1, 1, -1, 0])
        with pytest.raises(ContractViolation, match="switched groups"):
            check_ownership(owner, [[0, 3], [1]], num_groups=2)

    def test_rejects_out_of_range_group(self):
        owner = np.array([0, 5])
        with pytest.raises(ContractViolation, match="outside"):
            check_ownership(owner, [[0]], num_groups=2)


class TestCheckSpreads:
    def test_accepts_partition(self):
        check_spreads([10, 20], num_nodes=34)

    def test_rejects_sum_above_graph(self):
        with pytest.raises(ContractViolation, match="exceeding"):
            check_spreads([20, 20], num_nodes=34)

    def test_rejects_negative(self):
        with pytest.raises(ContractViolation, match="negative"):
            check_spreads([-1, 2], num_nodes=34)

    def test_estimate_bounds(self):
        check_spread_estimate(12.5, num_nodes=34)
        with pytest.raises(ContractViolation):
            check_spread_estimate(40.0, num_nodes=34)
        with pytest.raises(ContractViolation, match="non-finite"):
            check_spread_estimate(float("nan"), num_nodes=34)


class _CorruptModel(IndependentCascade):
    """A hostile model whose edge probabilities exceed 1."""

    def edge_probabilities(self, graph):
        return np.full(graph.num_edges, 1.5)


class TestSimulationIntegration:
    def test_clean_run_passes_with_contracts(self, contracts_on):
        graph = karate_like_fixture()
        engine = CompetitiveDiffusion(graph, IndependentCascade(0.1))
        outcome = engine.run([[0, 1], [33]], rng=7)
        assert outcome.total_activated <= graph.num_nodes

    def test_corrupt_model_raises_when_enabled(self, contracts_on):
        graph = karate_like_fixture()
        engine = CompetitiveDiffusion(graph, _CorruptModel(0.1))
        with pytest.raises(ContractViolation, match="edge probabilities"):
            engine.run([[0], [33]], rng=7)

    def test_corrupt_model_silent_when_disabled(self, contracts_off):
        graph = karate_like_fixture()
        engine = CompetitiveDiffusion(graph, _CorruptModel(0.1))
        outcome = engine.run([[0], [33]], rng=7)
        assert outcome.num_groups == 2

    def test_estimators_run_under_contracts(self, contracts_on):
        graph = karate_like_fixture()
        model = IndependentCascade(0.1)
        single = estimate_spread(graph, model, [0, 1], rounds=5, rng=3)
        assert 0.0 <= single.mean <= graph.num_nodes
        competitive = estimate_competitive_spread(
            graph, model, [[0], [33]], rounds=5, rng=3
        )
        assert sum(est.mean for est in competitive) <= graph.num_nodes
