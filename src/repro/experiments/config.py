"""Per-cell experiment configuration.

The paper's evaluation runs on graphs of up to 2.4M nodes with a C++
implementation; this pure-Python reproduction runs on scaled surrogate
graphs.  The defaults below are the reproduction scale every matrix spec
under ``benchmarks/matrices/`` pins explicitly (documented in
EXPERIMENTS.md): a 1200-node budget per surrogate, 20 diffusion
simulations per estimate, 120 live-edge snapshots inside MixGreedy,
master seed 2015 and IC edge probability 0.08.

Execution is configured by the library's runtime switches
(:class:`repro.config.RunConfig`): ``REPRO_BACKEND`` and ``REPRO_WORKERS``
select the simulation backend — results are bit-identical across those
settings for a fixed seed — and ``REPRO_SYMMETRY`` selects full-profile
vs symmetric-reduced payoff estimation.  The orchestrator overrides all
three per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms import DegreeDiscount, MixGreedy, SingleDiscount
from repro.cascade import (
    CascadeModel,
    IndependentCascade,
    LinearThreshold,
    WeightedCascade,
)
from repro.config import RunConfig
from repro.core.payoff import resolve_symmetry
from repro.core.strategy import StrategySpace
from repro.errors import ExperimentError
from repro.exec.executor import Executor, build_executor
from repro.graphs.datasets import DATASETS
from repro.graphs.digraph import DiGraph


#: Model kinds :meth:`ExperimentConfig.model` accepts.
MODEL_KINDS = ("ic", "wc", "lt")


@dataclass
class ExperimentConfig:
    """Scale knobs and model/strategy plumbing for one scenario cell."""

    nodes_budget: int = 1200
    rounds: int = 20
    snapshots: int = 120
    seed: int = 2015
    # The paper uses p = 0.01 on the 15k-node Hep graph; on the scaled
    # surrogate that leaves cascades too short to differentiate strategies.
    # p = 0.08 restores the paper-scale regime (multi-hop cascades where
    # greedy beats the degree heuristic and same-algorithm seed sets
    # overlap); see EXPERIMENTS.md.
    ic_probability: float = 0.08
    backend: str = field(default_factory=lambda: RunConfig.from_env().backend)
    workers: int | None = field(default_factory=lambda: RunConfig.from_env().workers)
    symmetry: str = field(default_factory=resolve_symmetry)
    _graph_cache: dict[str, DiGraph] = field(default_factory=dict, repr=False)
    _executor: Executor | None = field(default=None, repr=False)

    def scale_for(self, dataset: str) -> float:
        """Fraction of the paper-scale graph that fits the node budget."""
        spec = DATASETS[dataset]
        return min(1.0, self.nodes_budget / spec.paper_nodes)

    def load(self, dataset: str) -> DiGraph:
        """Load (and cache) the surrogate for *dataset* at the bench scale."""
        if dataset not in self._graph_cache:
            if dataset not in DATASETS:
                raise ExperimentError(
                    f"unknown dataset {dataset!r}; available: {sorted(DATASETS)}"
                )
            self._graph_cache[dataset] = DATASETS[dataset].load(
                scale=self.scale_for(dataset)
            )
        return self._graph_cache[dataset]

    def executor(self) -> Executor:
        """The (cached) execution engine the cell submits batches to."""
        if self._executor is None:
            self._executor = build_executor(self.backend, self.workers)
        return self._executor

    # ------------------------------------------------------------------ #
    # the paper's model/strategy pairings
    # ------------------------------------------------------------------ #

    def model(self, model_kind: str) -> CascadeModel:
        """The cascade model for ``"ic"``, ``"wc"`` or ``"lt"``."""
        if model_kind == "ic":
            return IndependentCascade(self.ic_probability)
        if model_kind == "wc":
            return WeightedCascade()
        if model_kind == "lt":
            return LinearThreshold()
        raise ExperimentError(
            f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}"
        )

    def strategy_space(self, model_kind: str) -> StrategySpace:
        """The paper's 2-strategy space for each model.

        Under IC: φ1 = MixGreedy(IC), φ2 = DegreeDiscountIC.
        Under WC: φ1 = MixGreedy(WC), φ2 = SingleDiscount.
        Under LT (an extension; the paper stresses model orthogonality):
        φ1 = MixGreedy(LT) on LT triggering snapshots, φ2 = SingleDiscount.
        """
        model = self.model(model_kind)
        greedy = MixGreedy(
            model,
            num_snapshots=self.snapshots,
            executor=self.executor(),
        )
        if model_kind == "ic":
            return StrategySpace([greedy, DegreeDiscount(self.ic_probability)])
        return StrategySpace([greedy, SingleDiscount()])
