"""Every registered scenario runs through the orchestrator, and every check bites."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.orchestrator import MatrixSpec, run_matrix
from repro.experiments.scenarios import (
    _SCENARIOS,
    ScenarioCell,
    lookup,
    registered_scenarios,
)
from repro.experiments.trajectory import validate_entry

SCENARIOS = sorted(row["scenario"] for row in registered_scenarios())


@pytest.mark.parametrize(
    ("name", "model"),
    [(name, "ic") for name in SCENARIOS] + [("getreal", "lt")],
)
def test_scenario_runs_on_a_small_pinned_cell(name, model, tmp_path):
    spec = MatrixSpec.from_dict(
        {
            "name": f"small-{name}",
            "scenario": name,
            "datasets": ["hep"],
            "models": [model],
            "ks": [3],
            "nodes": 150,
            "rounds": 3,
            "snapshots": 4,
            "seed": 11,
        }
    )
    result = run_matrix(spec, append=False)
    (cell,) = result.results
    # The scenario ran to completion; at this scale its checks may still
    # reject the measurement, but only through ExperimentError.
    assert cell.metrics, cell.error
    assert cell.ok or cell.error.startswith(
        ("ExperimentError: ", "matrix check: ExperimentError: ")
    )
    entry = validate_entry(result.entry)
    assert json.loads(json.dumps(entry, allow_nan=False)) == entry


def est(mean, stderr=0.1):
    return {"mean": mean, "stderr": stderr}


def spreads(vs1, vs2, single):
    return {
        panel: {"phi1": est(a), "phi2": est(b)}
        for panel, (a, b) in (("vs_phi1", vs1), ("vs_phi2", vs2), ("single", single))
    }


def payoff(r3_speedup):
    return {
        "r3": {"speedup": r3_speedup, "cells_beyond_3_stderr": 0},
        "r2": {"speedup": 1.6, "cells_beyond_3_stderr": 0},
        "sweep": {"cache_hits": 3, "cold_kind": "pure", "warm_kind": "pure"},
    }


def paper(rho):
    return {
        "fig10": {"lambda": 0.55, "gamma": 0.6, "alpha+beta": 1.1},
        "table4": {"r2": {"ne_s": 0.001}, "r3": {"ne_s": 0.01}},
        "rho_phi1": est(rho),
    }


def blockers(after):
    return {
        "blockers2": {"rival_before": 100.0, "rival_after": after, "blocked_fraction": 0.1},
        "blockers10": {"rival_before": 100.0, "rival_after": 60.0, "blocked_fraction": 0.4},
    }


def stability(last):
    return {f"rounds{r}": {"max_stderr": s} for r, s in ((5, 3.0), (10, 2.0), (20, 1.5), (40, last))}


#: scenario -> (metrics its check accepts, metrics its check rejects)
CHECK_CASES = {
    "getreal": ({"kind": "mixed", "solve_s": 0.01}, {"kind": "mixed", "solve_s": 1.5}),
    "payoff_speedup": (payoff(2.5), payoff(1.9)),
    "datasets": (
        {"directed": False, "degree_gini": 0.45},
        {"directed": False, "degree_gini": 0.25},
    ),
    "spread_panels": (
        {**spreads((50, 45), (60, 55), (80, 75)), "base": spreads((25, 20), (30, 25), (40, 35))},
        {**spreads((50, 45), (60, 55), (80, 75)), "base": spreads((75, 70), (90, 80), (120, 110))},
    ),
    "mixed_vs_random": (
        {"rho_phi1": est(0.6), "mixed": {"p1": est(50), "p2": est(50)},
         "random": {"p1": est(52), "p2": est(52)}},
        {"rho_phi1": est(0.6), "mixed": {"p1": est(50), "p2": est(50)},
         "random": {"p1": est(60), "p2": est(60)}},
    ),
    "profile_spreads": (
        {"a-a": {"p1": est(40)}, "a-b": {"p1": est(60)}, "mixed": {"p1": est(50)}},
        {"a-a": {"p1": est(40)}, "a-b": {"p1": est(60)}, "mixed": {"p1": est(70)}},
    ),
    "ne_response_time": (
        {"r2": {"ne_s": 0.001}, "r3": {"ne_s": 0.01}},
        {"r2": {"ne_s": 0.001}, "r3": {"ne_s": 1.2}},
    ),
    "coefficients": (
        {"lambda": 0.55, "gamma": 0.6, "alpha+beta": 1.1},
        {"lambda": 0.3, "gamma": 0.6, "alpha+beta": 1.1},
    ),
    "paper_comparison": (paper(0.5), paper(1.2)),
    "equilibrium_efficiency": ({"price_of_anarchy": 1.05}, {"price_of_anarchy": 2.5}),
    "solver_agreement": (
        {"solvers": {"a": {"regret": 0.0}, "b": {"regret": None}}, "random_2x2_agreement": 1.0},
        {"solvers": {"a": {"regret": 0.0}, "b": {"regret": None}}, "random_2x2_agreement": 0.9},
    ),
    "claim_rules": (
        {"uniform/proportional": {"total": est(100)}, "x/y": {"total": est(120)}},
        {"uniform/proportional": {"total": est(100)}, "x/y": {"total": est(150)}},
    ),
    "decision_stability": (stability(1.0), stability(4.0)),
    "alternate_selection": (
        {"alternate": {"total": 100.0}, "getreal": {"total": est(90)}},
        {"alternate": {"total": 100.0}, "getreal": {"total": est(60)}},
    ),
    "blocking": (blockers(90.0), blockers(110.0)),
    "asymmetric_budgets": ({"p1_value": 60.0, "p2_value": 40.0}, {"p1_value": 40.0, "p2_value": 60.0}),
    "collusion": (
        {"coalition_value": 100.0, "independent_value": 90.0, "outsider_value": 50.0},
        {"coalition_value": 30.0, "independent_value": 90.0, "outsider_value": 50.0},
    ),
    "follower_information": (
        {"blind": {"rival": est(50)}, "informed": {"rival": est(48)}},
        {"blind": {"rival": est(50)}, "informed": {"rival": est(30)}},
    ),
    "three_player": (
        {"payoff": {str(i): {} for i in range(27)}, "solve_s": 0.05, "recommended": "1.000*mgic"},
        {"payoff": {str(i): {} for i in range(27)}, "solve_s": 0.05, "recommended": "1.000*random"},
    ),
}


def cell(dataset="hep", model="ic", k=10):
    return ScenarioCell(dataset, model, "serial", "full", k)


def overlaps(same2, cross, same1):
    return {"phi2-phi2": est(same2), "phi2-phi1": est(cross), "phi1-phi1": est(same1)}


def panels(greedy, heuristic):
    return {panel: {"phi1": est(greedy), "phi2": est(heuristic)} for panel in ("vs_phi1", "vs_phi2")}


#: scenario -> (cells its matrix check accepts, cells it rejects)
MATRIX_CHECK_CASES = {
    # Means over the figure: one cell may break the claim, the mean may not.
    "jaccard_overlap": (
        [(cell(k=10), overlaps(1.0, 0.3, 0.2)), (cell(k=20), overlaps(1.0, 0.3, 0.4))],
        [(cell(k=10), overlaps(1.0, 0.3, 0.2)), (cell(k=20), overlaps(1.0, 0.3, 0.2))],
    ),
    # Only IC cells carry the pure-NE claim.
    "spread_panels": (
        [(cell(k=10), panels(80, 100)), (cell(k=20), panels(110, 100)),
         (cell(model="wc"), panels(10, 100))],
        [(cell(k=10), panels(80, 100)), (cell(k=20), panels(80, 100))],
    ),
}


def test_every_check_has_cases():
    checked = {name for name, entry in _SCENARIOS.items() if entry.check is not None}
    assert checked == set(CHECK_CASES)
    matrix_checked = {
        name for name, entry in _SCENARIOS.items() if entry.matrix_check is not None
    }
    assert matrix_checked == set(MATRIX_CHECK_CASES)


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_accepts_passing_metrics(name):
    lookup(name).check(CHECK_CASES[name][0])


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_rejects_violating_metrics(name):
    with pytest.raises(ExperimentError):
        lookup(name).check(CHECK_CASES[name][1])


@pytest.mark.parametrize("name", sorted(MATRIX_CHECK_CASES))
def test_matrix_check_accepts_passing_cells(name):
    lookup(name).matrix_check(MATRIX_CHECK_CASES[name][0])


@pytest.mark.parametrize("name", sorted(MATRIX_CHECK_CASES))
def test_matrix_check_rejects_violating_cells(name):
    with pytest.raises(ExperimentError):
        lookup(name).matrix_check(MATRIX_CHECK_CASES[name][1])
