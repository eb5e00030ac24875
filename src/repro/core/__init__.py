"""The paper's contribution: IM strategy selection via Nash equilibrium."""

from repro.core.strategy import MixedStrategy, StrategySpace
from repro.core.payoff import PayoffTable, estimate_payoff_table
from repro.core.metrics import (
    CoefficientEstimates,
    estimate_coefficients,
    estimate_coefficients_from_seeds,
    jaccard,
    seed_overlap_profile,
)
from repro.core.getreal import GetRealResult, get_real, solve_strategy_game
from repro.core.collusion import CollusionResult, collusion_analysis
from repro.core.budgets import (
    AsymmetricBudgetResult,
    asymmetric_budget_analysis,
    asymmetric_budget_game,
    solve_asymmetric_budget_game,
)
from repro.core.analysis import (
    EfficiencyReport,
    efficiency_report,
    optimal_welfare,
    profile_welfare,
    symmetric_mixture_welfare,
)
from repro.core.blocking import BlockingResult, select_blockers
from repro.core.best_response import BestResponseOutcome, best_response_dynamics

__all__ = [
    "MixedStrategy",
    "StrategySpace",
    "PayoffTable",
    "estimate_payoff_table",
    "CoefficientEstimates",
    "estimate_coefficients",
    "estimate_coefficients_from_seeds",
    "jaccard",
    "seed_overlap_profile",
    "GetRealResult",
    "get_real",
    "solve_strategy_game",
    "CollusionResult",
    "collusion_analysis",
    "AsymmetricBudgetResult",
    "asymmetric_budget_analysis",
    "asymmetric_budget_game",
    "solve_asymmetric_budget_game",
    "EfficiencyReport",
    "efficiency_report",
    "optimal_welfare",
    "profile_welfare",
    "symmetric_mixture_welfare",
    "BlockingResult",
    "select_blockers",
    "BestResponseOutcome",
    "best_response_dynamics",
]
