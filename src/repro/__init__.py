"""GetReal: realistic selection of influence-maximization strategies in
competitive networks.

A from-scratch Python reproduction of Li, Bhowmick, Cui, Gao & Ma,
*GetReal* (SIGMOD 2015).  The public API re-exports the pieces a user
needs end to end:

>>> import repro
>>> graph = repro.karate_like_fixture()
>>> model = repro.IndependentCascade(0.1)
>>> space = repro.StrategySpace([
...     repro.DegreeDiscount(0.1), repro.RandomSeeds()])
>>> result = repro.get_real(graph, model, space, k=3, rounds=10, rng=7)
>>> result.kind in {"pure", "mixed"}
True
"""

from repro.errors import (
    CascadeError,
    EquilibriumError,
    GameError,
    GraphError,
    GraphFormatError,
    JournalError,
    ObservabilityError,
    PayoffEstimationError,
    ReproError,
    SeedSelectionError,
)
from repro.graphs import (
    DiGraph,
    community_powerlaw,
    copying_model,
    erdos_renyi,
    get_dataset,
    hep,
    karate_like_fixture,
    load_edge_list,
    phy,
    powerlaw_configuration,
    save_edge_list,
    summarize,
    wiki,
)
from repro.cascade import (
    ClaimRule,
    CompetitiveDiffusion,
    IndependentCascade,
    LinearThreshold,
    SpreadEstimate,
    TieBreakRule,
    WeightedCascade,
    estimate_competitive_spread,
    estimate_spread,
)
from repro.algorithms import (
    DegreeDiscount,
    HighDegree,
    MixGreedy,
    PageRankSeeds,
    RandomSeeds,
    SeedSelector,
    SingleDiscount,
    get_algorithm,
)
from repro.game import (
    NormalFormGame,
    lemke_howson,
    pure_nash_equilibria,
    replicator_dynamics,
    support_enumeration,
    symmetric_mixed_equilibrium,
)
from repro.obs import (
    RunJournal,
    attach_journal,
    attached,
    configure_logging,
    detach_journal,
    get_logger,
    metrics_reset,
    metrics_snapshot,
    read_journal,
)
from repro.core import (
    AsymmetricBudgetResult,
    BlockingResult,
    CoefficientEstimates,
    EfficiencyReport,
    GetRealResult,
    MixedStrategy,
    PayoffTable,
    StrategySpace,
    asymmetric_budget_analysis,
    collusion_analysis,
    efficiency_report,
    estimate_coefficients,
    estimate_payoff_table,
    get_real,
    jaccard,
    select_blockers,
    solve_strategy_game,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "CascadeError",
    "SeedSelectionError",
    "GameError",
    "EquilibriumError",
    "PayoffEstimationError",
    "ObservabilityError",
    "JournalError",
    # graphs
    "DiGraph",
    "community_powerlaw",
    "copying_model",
    "erdos_renyi",
    "powerlaw_configuration",
    "karate_like_fixture",
    "load_edge_list",
    "save_edge_list",
    "get_dataset",
    "hep",
    "phy",
    "wiki",
    "summarize",
    # cascade
    "IndependentCascade",
    "WeightedCascade",
    "LinearThreshold",
    "CompetitiveDiffusion",
    "TieBreakRule",
    "ClaimRule",
    "SpreadEstimate",
    "estimate_spread",
    "estimate_competitive_spread",
    # algorithms
    "SeedSelector",
    "MixGreedy",
    "DegreeDiscount",
    "SingleDiscount",
    "HighDegree",
    "PageRankSeeds",
    "RandomSeeds",
    "get_algorithm",
    # observability
    "configure_logging",
    "get_logger",
    "metrics_snapshot",
    "metrics_reset",
    "RunJournal",
    "attach_journal",
    "detach_journal",
    "attached",
    "read_journal",
    # game theory
    "NormalFormGame",
    "pure_nash_equilibria",
    "symmetric_mixed_equilibrium",
    "support_enumeration",
    "lemke_howson",
    "replicator_dynamics",
    # core
    "StrategySpace",
    "MixedStrategy",
    "PayoffTable",
    "estimate_payoff_table",
    "GetRealResult",
    "get_real",
    "solve_strategy_game",
    "CoefficientEstimates",
    "estimate_coefficients",
    "jaccard",
    "collusion_analysis",
    "AsymmetricBudgetResult",
    "asymmetric_budget_analysis",
    "BlockingResult",
    "select_blockers",
    "EfficiencyReport",
    "efficiency_report",
]
