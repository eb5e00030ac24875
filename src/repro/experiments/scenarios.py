"""Scenario plugins for the experiment orchestrator.

A *scenario* is the measurement taken inside one cell of a scenario
matrix: a callable ``fn(cell, config) -> metrics`` where *cell* is the
:class:`ScenarioCell` naming the (dataset, model, backend, symmetry, k)
coordinates, *config* is a fully resolved
:class:`~repro.experiments.config.ExperimentConfig` for that cell (its
``executor()``/``load()``/``strategy_space()`` plumbing already points at
the cell's backend and dataset), and *metrics* is a JSON object of
results (nested objects are allowed).

A scenario may register a *check*: ``check(metrics)`` raises
:class:`~repro.errors.ExperimentError` (see :func:`require`) when a cell's
metrics violate the claim the experiment reproduces.  The orchestrator
applies it to every cell; a violation fails the cell (``status:
"failed"``, metrics kept for diagnosis) and the run exits non-zero.  A
*matrix_check* does the same for a claim about the whole figure (a mean
over datasets and budgets): it sees every ok cell, and a violation fails
them all.

Metric value conventions — these drive the regression gate
(:mod:`repro.experiments.gate`):

* ``{"mean": m, "stderr": s}`` dicts are Monte-Carlo estimates; the gate
  checks run-over-run drift against the pooled standard error;
* numeric keys ending in ``speedup`` are higher-is-better ratios; the gate
  fails when they regress beyond its tolerance;
* numeric keys ending in ``_s``/``_ms``/``seconds`` are wall-clock timings,
  compared only when the gate's opt-in time tolerance is set;
* strings (e.g. an equilibrium ``kind``) are compared for equality.

The paper's tables and figures live in :mod:`repro.experiments.figures`,
the ablations and extensions in :mod:`repro.experiments.extensions`; a
new workload lands by *registering* a scenario plus a matrix spec under
``benchmarks/matrices/``::

    from repro.experiments.scenarios import require, scenario

    def _check(metrics):
        require(metrics["blocked_fraction"]["mean"] >= 0, "negative blocking")

    @scenario("blocking", "defender/attacker blocking", check=_check)
    def blocking(cell, config):
        ...
        return {"blocked_fraction": {"mean": ..., "stderr": ...}}
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

from repro.cascade.estimate import SpreadEstimate
from repro.errors import ExperimentError
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: A scenario measurement: ``fn(cell, config) -> metrics``.
ScenarioFn = Callable[["ScenarioCell", Any], dict[str, Any]]

#: A cell check: ``check(metrics)`` raises :class:`ExperimentError`.
CheckFn = Callable[[dict[str, Any]], None]

#: A matrix check over every ok cell: ``check([(cell, metrics), ...])``.
MatrixCheckFn = Callable[[list[tuple["ScenarioCell", dict[str, Any]]]], None]


@dataclass(frozen=True)
class ScenarioCell:
    """One coordinate of the scenario matrix."""

    dataset: str
    model: str
    backend: str
    symmetry: str
    k: int

    @property
    def cell_id(self) -> str:
        """Stable identifier used in manifests, journals and trajectories."""
        return (
            f"{self.dataset}/{self.model}/"
            f"{self.backend}/{self.symmetry}/k{self.k}"
        )


class Scenario(NamedTuple):
    """A registered scenario: measurement, summary and its checks."""

    fn: ScenarioFn
    summary: str
    check: CheckFn | None = None
    matrix_check: MatrixCheckFn | None = None


_SCENARIOS: dict[str, Scenario] = {}


def scenario(
    name: str,
    summary: str,
    check: CheckFn | None = None,
    matrix_check: MatrixCheckFn | None = None,
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario plugin and its checks under *name* (decorator).

    *check* judges one cell's metrics; *matrix_check* judges a claim the
    paper makes about a figure as a whole (a mean over datasets and
    budgets) from every ok cell of the run.
    """

    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in _SCENARIOS:
            raise ExperimentError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = Scenario(fn, summary, check, matrix_check)
        return fn

    return register


def lookup(name: str) -> Scenario:
    """The registered scenario, or :class:`ExperimentError`."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; registered: {sorted(_SCENARIOS)}"
        ) from None


def get_scenario(name: str) -> ScenarioFn:
    """The registered scenario callable, or :class:`ExperimentError`."""
    return lookup(name).fn


def registered_scenarios() -> list[dict[str, str]]:
    """Name/summary rows for every registered scenario (CLI ``list``)."""
    return [
        {"scenario": name, "summary": _SCENARIOS[name].summary}
        for name in sorted(_SCENARIOS)
    ]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ExperimentError` with *message* unless *condition*."""
    if not condition:
        raise ExperimentError(message)


def estimate(mean: float, stderr: float) -> dict[str, float]:
    """A Monte-Carlo metric; ``float()`` strips numpy scalars, which are
    not JSON-serializable and would fail the trajectory schema."""
    return {"mean": float(mean), "stderr": float(stderr)}


def as_estimate(value: Any) -> dict[str, float]:
    """A :class:`~repro.cascade.simulate.SpreadEstimate` as a metric."""
    return estimate(value.mean, value.stderr)


def estimate_of(values: Iterable[float]) -> dict[str, float]:
    """Sample mean and standard error of repeated measurements."""
    return as_estimate(SpreadEstimate.from_values(list(values)))


# ---------------------------------------------------------------------- #
# built-in scenarios
# ---------------------------------------------------------------------- #


@scenario(
    "competitive_spread",
    "head-to-head spread of the paper's strategy pairing (phi1 vs phi2)",
)
def competitive_spread(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Per-group competitive spreads of φ1 vs φ2 at the cell's budget.

    Exercises the full estimation stack — strategy selection (MixGreedy's
    snapshot pools + the selection cache) and the batched executor on the
    cell's backend.
    """
    from repro.cascade.simulate import estimate_competitive_spread
    from repro.core.metrics import jaccard

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    rng = as_rng(config.seed)
    seeds = [phi.select(graph, cell.k, rng) for phi in (space[0], space[1])]
    estimates = estimate_competitive_spread(
        graph,
        model,
        seeds,
        config.rounds,
        rng,
        executor=config.executor(),
    )
    return {
        "p1_spread": {
            "mean": float(estimates[0].mean),
            "stderr": float(estimates[0].stderr),
        },
        "p2_spread": {
            "mean": float(estimates[1].mean),
            "stderr": float(estimates[1].stderr),
        },
        "seed_overlap": {
            "mean": float(jaccard(seeds[0], seeds[1])),
            "stderr": 0.0,
        },
    }


def getreal_metrics(result: Any) -> dict[str, Any]:
    """The recommendation, its noise floor, and the payoff table as
    ``{profile: {"p1": estimate, ...}}``."""
    table = result.payoff_table
    return {
        "kind": result.kind,
        "recommended": result.mixture.describe(),
        "rho_phi1": estimate(
            result.mixture.probabilities[0],
            # The mixture is a deterministic function of the (noisy) payoff
            # table; its run-over-run drift is bounded by the table's own
            # noise floor, which is what the gate should compare against.
            table.max_stderr(),
        ),
        "regret": float(result.regret),
        "solve_s": float(result.solve_seconds),
        "payoff": {
            "-".join(table.space[a].name for a in profile): {
                f"p{i + 1}": as_estimate(est) for i, est in enumerate(per_player)
            }
            for profile, per_player in sorted(table.estimates.items())
        },
    }


def _check_getreal(metrics: dict[str, Any]) -> None:
    require(
        metrics["kind"] in {"pure", "mixed"},
        f"unknown equilibrium kind {metrics['kind']!r}",
    )
    require(
        metrics["solve_s"] < 1.0,
        f"NE search took {metrics['solve_s']:.3f}s (Table 4: sub-second)",
    )


@scenario(
    "getreal",
    "full GetReal pipeline: equilibrium kind, recommended mixture, payoffs",
    check=_check_getreal,
)
def getreal(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Run GetReal end to end on the cell and record the recommendation.

    With ``models: ["lt"]`` this is the model-orthogonality extension: the
    identical pipeline under Linear Threshold.
    """
    from repro.core.getreal import get_real

    space = config.strategy_space(cell.model)
    result = get_real(
        config.load(cell.dataset),
        config.model(cell.model),
        space,
        num_groups=2,
        k=cell.k,
        rounds=config.rounds,
        rng=config.seed,
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    return {**getreal_metrics(result), "phi1": space.labels[0]}


#: Speedup floors of the symmetric reduction per group count ``r``.
MIN_SPEEDUP = {3: 2.0, 2: 1.5}


def _check_payoff_speedup(metrics: dict[str, Any]) -> None:
    for r, floor in MIN_SPEEDUP.items():
        row = metrics[f"r{r}"]
        require(
            row["speedup"] >= floor,
            f"reduce mode only {row['speedup']:.2f}x faster than full at "
            f"r={r} (need >= {floor}x)",
        )
        require(
            row["cells_beyond_3_stderr"] == 0,
            f"r={r}: {row['cells_beyond_3_stderr']} reduced cell(s) differ "
            "from the full table by more than 3 pooled stderrs",
        )
    sweep = metrics["sweep"]
    require(sweep["cache_hits"] > 0, "warm get_real sweep produced no cache hits")
    require(
        sweep["warm_kind"] == sweep["cold_kind"],
        f"warm sweep found a {sweep['warm_kind']} NE, cold a {sweep['cold_kind']}",
    )


@scenario(
    "payoff_speedup",
    "symmetric-reduction speedup and equivalence on a z=3 payoff tensor",
    check=_check_payoff_speedup,
)
def payoff_speedup(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Time ``estimate_payoff_table`` full vs ``symmetry="reduce"``.

    The strategy space is the cell model's paper pairing widened to
    ``z = 3`` with HighDegree; both modes run at ``r = 3`` and ``r = 2``
    groups with equal rounds and master seed.  A ``rounds=1`` warm-up
    table fills the selection cache first, so both timed runs replay
    phase 1 from the memo and the ratio isolates the simulation saving.
    Every reduced cell must sit within 3 pooled standard errors of the
    full table, and a repeated ``get_real`` sweep must hit the cache.
    """
    import math

    from repro.algorithms import HighDegree
    from repro.cache import clear_caches
    from repro.core.getreal import get_real
    from repro.core.payoff import estimate_payoff_table
    from repro.core.strategy import StrategySpace
    from repro.obs.metrics import counter

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = StrategySpace(list(config.strategy_space(cell.model)) + [HighDegree()])
    executor = config.executor()

    def table(groups: int, rounds: int, mode: str) -> Any:
        return estimate_payoff_table(
            graph, model, space, num_groups=groups, k=cell.k, rounds=rounds,
            rng=config.seed, executor=executor, symmetry=mode,
        )

    def sweep() -> Any:
        return get_real(
            graph, model, space, k=cell.k, rounds=config.rounds,
            rng=config.seed, executor=executor, symmetry="reduce",
        )

    metrics: dict[str, Any] = {}
    clear_caches()
    for r in (3, 2):
        table(r, 1, "full")
        tables: dict[str, Any] = {}
        seconds: dict[str, float] = {}
        for mode in ("full", "reduce"):
            watch = Stopwatch()
            with watch:
                tables[mode] = table(r, config.rounds, mode)
            seconds[mode] = watch.elapsed
        worst, beyond = 0.0, 0
        for profile in tables["full"].estimates:
            for player in range(r):
                a = tables["full"].estimate(profile, player)
                b = tables["reduce"].estimate(profile, player)
                pooled = math.sqrt(a.stderr**2 + b.stderr**2)
                gap = abs(a.mean - b.mean)
                beyond += gap > 3.0 * pooled + 1e-9
                if pooled:
                    worst = max(worst, gap / pooled)
        metrics[f"r{r}"] = {
            "speedup": seconds["full"] / seconds["reduce"],
            "full_s": seconds["full"],
            "reduce_s": seconds["reduce"],
            "worst_gap_stderrs": worst,
            "cells_beyond_3_stderr": int(beyond),
            "full_cell0": as_estimate(tables["full"].estimate((0,) * r, 0)),
            "reduce_cell0": as_estimate(tables["reduce"].estimate((0,) * r, 0)),
        }

    hits = counter("cache.hits")
    clear_caches()
    cold_watch, warm_watch = Stopwatch(), Stopwatch()
    with cold_watch:
        cold = sweep()
    hits_before = hits.value
    with warm_watch:
        warm = sweep()
    metrics["sweep"] = {
        "cold_s": cold_watch.elapsed,
        "warm_s": warm_watch.elapsed,
        "cache_hits": int(hits.value - hits_before),
        "cold_kind": cold.kind,
        "warm_kind": warm.kind,
    }
    return metrics
