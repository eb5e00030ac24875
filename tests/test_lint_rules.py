"""Per-rule fixture tests for reprolint (RP001–RP009).

Each rule gets positive snippets (must flag), negative snippets (must stay
silent), and a suppressed variant (flag silenced by an inline
``# reprolint: disable`` comment).  Scoping is exercised through the fake
paths passed to :func:`lint_source` — rules key off path parts, so
``cascade/x.py`` opts a snippet into the cascade-scoped rules.
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.rules import ALL_RULES, rule_by_code


def findings_for(source, path, select=None):
    return lint_source(textwrap.dedent(source), path, select=select)


def codes(findings):
    return [f.code for f in findings]


class TestRuleCatalogue:
    def test_rules_with_stable_codes(self):
        assert [r.code for r in ALL_RULES] == [
            "RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP008",
            "RP009",
        ]

    def test_every_rule_carries_metadata(self):
        for rule in ALL_RULES:
            assert rule.code.startswith("RP")
            assert rule.name and rule.name != "abstract-rule"
            assert rule.rationale
            assert rule.hint

    def test_rule_by_code(self):
        assert rule_by_code("RP003").name == "no-graph-mutation"
        with pytest.raises(KeyError):
            rule_by_code("RP777")


class TestRP001NoGlobalRandom:
    def test_flags_stdlib_random_call(self):
        found = findings_for(
            """
            import random

            def pick():
                return random.random()
            """,
            "core/sampling.py",
            select=["RP001"],
        )
        assert codes(found) == ["RP001", "RP001"]  # the import and the call

    def test_flags_np_random_call(self):
        found = findings_for(
            """
            import numpy as np

            def pick(n):
                return np.random.default_rng().integers(0, n)
            """,
            "cascade/sampling.py",
            select=["RP001"],
        )
        assert codes(found) == ["RP001"]

    def test_flags_numpy_random_import_of_entry_points(self):
        found = findings_for(
            "from numpy.random import default_rng\n",
            "core/x.py",
            select=["RP001"],
        )
        assert codes(found) == ["RP001"]

    def test_allows_generator_type_usage(self):
        found = findings_for(
            """
            import numpy as np
            from numpy.random import Generator

            def draw(rng: np.random.Generator) -> float:
                return rng.random()
            """,
            "cascade/sampling.py",
            select=["RP001"],
        )
        assert found == []

    def test_exempts_utils_rng(self):
        found = findings_for(
            """
            import numpy as np

            def as_rng(seed):
                return np.random.default_rng(seed)
            """,
            "utils/rng.py",
            select=["RP001"],
        )
        assert found == []

    def test_suppression_comment(self):
        found = findings_for(
            """
            import numpy as np

            def pick():
                return np.random.rand()  # reprolint: disable=RP001
            """,
            "core/x.py",
            select=["RP001"],
        )
        assert found == []


class TestRP002NoFloatEquality:
    def test_flags_equality_with_float_literal(self):
        found = findings_for(
            """
            def skip(weight):
                return weight == 0.0
            """,
            "game/mixed.py",
            select=["RP002"],
        )
        assert codes(found) == ["RP002"]

    def test_flags_not_equal_and_float_cast(self):
        found = findings_for(
            """
            def diff(a, b):
                return float(a) != b
            """,
            "core/payoff.py",
            select=["RP002"],
        )
        assert codes(found) == ["RP002"]

    def test_allows_ordering_comparisons(self):
        found = findings_for(
            """
            def clamp(x):
                return x if x >= 0.0 else 0.0
            """,
            "game/pure.py",
            select=["RP002"],
        )
        assert found == []

    def test_allows_integer_equality(self):
        found = findings_for(
            """
            def is_empty(count):
                return count == 0
            """,
            "core/budgets.py",
            select=["RP002"],
        )
        assert found == []

    def test_out_of_scope_package_not_linted(self):
        found = findings_for(
            "def f(x):\n    return x == 0.0\n",
            "graphs/generators.py",
            select=["RP002"],
        )
        assert found == []

    def test_suppression_comment(self):
        found = findings_for(
            """
            def exact(a):
                return a == 1.0  # reprolint: disable=RP002
            """,
            "game/mixed.py",
            select=["RP002"],
        )
        assert found == []


class TestRP003NoGraphMutation:
    def test_flags_attribute_assignment(self):
        found = findings_for(
            """
            def select(graph, k):
                graph.cache = {}
                return []
            """,
            "algorithms/bad.py",
            select=["RP003"],
        )
        assert codes(found) == ["RP003"]

    def test_flags_subscript_mutation_through_method(self):
        found = findings_for(
            """
            def select(graph, k):
                graph.out_degrees()[0] = 0
                return []
            """,
            "algorithms/bad.py",
            select=["RP003"],
        )
        assert codes(found) == ["RP003"]

    def test_flags_mutator_call_on_annotated_param(self):
        found = findings_for(
            """
            def select(network: DiGraph, k: int):
                network.add_edge(0, 1)
                return []
            """,
            "algorithms/bad.py",
            select=["RP003"],
        )
        assert codes(found) == ["RP003"]

    def test_flags_augmented_assignment(self):
        found = findings_for(
            """
            class Selector:
                def _select(self, graph, k, rng=None):
                    graph.weights[3] += 1.0
                    return []
            """,
            "algorithms/bad.py",
            select=["RP003"],
        )
        assert codes(found) == ["RP003"]

    def test_allows_reads_and_local_copies(self):
        found = findings_for(
            """
            def select(graph, k):
                degrees = graph.out_degrees().copy()
                degrees[0] = 0
                return list(degrees[:k])
            """,
            "algorithms/good.py",
            select=["RP003"],
        )
        assert found == []

    def test_out_of_scope_package_not_linted(self):
        found = findings_for(
            "def f(graph):\n    graph.cache = 1\n",
            "core/x.py",
            select=["RP003"],
        )
        assert found == []

    def test_suppression_comment(self):
        found = findings_for(
            """
            def select(graph, k):
                graph.cache = {}  # reprolint: disable=RP003
                return []
            """,
            "algorithms/bad.py",
            select=["RP003"],
        )
        assert found == []


class TestRP004CacheMetricHandles:
    def test_flags_factory_call_inside_function(self):
        found = findings_for(
            """
            from repro.obs.metrics import counter

            def run():
                counter("cascade.simulations").inc()
            """,
            "cascade/engine.py",
            select=["RP004"],
        )
        assert codes(found) == ["RP004"]

    def test_flags_module_attribute_style(self):
        found = findings_for(
            """
            from repro.obs import metrics

            def run(j):
                metrics.histogram(f"cascade.group{j}.spread").observe(1.0)
            """,
            "cascade/engine.py",
            select=["RP004"],
        )
        assert codes(found) == ["RP004"]

    def test_allows_module_level_handles(self):
        found = findings_for(
            """
            from repro.obs.metrics import counter

            _SIMULATIONS = counter("cascade.simulations")

            def run():
                _SIMULATIONS.inc()
            """,
            "cascade/engine.py",
            select=["RP004"],
        )
        assert found == []

    def test_applies_to_core_payoff_only_within_core(self):
        source = """
        from repro.obs.metrics import counter

        def run():
            counter("payoff.tables").inc()
        """
        assert codes(findings_for(source, "core/payoff.py", select=["RP004"])) == [
            "RP004"
        ]
        assert findings_for(source, "core/getreal.py", select=["RP004"]) == []

    def test_suppression_comment(self):
        found = findings_for(
            """
            from repro.obs.metrics import histogram

            def handle(j):
                return histogram(f"g{j}")  # reprolint: disable=RP004
            """,
            "cascade/engine.py",
            select=["RP004"],
        )
        assert found == []


class TestRP005PublicAPIAnnotations:
    def test_flags_unannotated_public_function(self):
        found = findings_for(
            """
            def estimate(graph, rounds):
                return 0.0
            """,
            "core/payoff.py",
            select=["RP005"],
        )
        assert codes(found) == ["RP005"]
        assert "graph" in found[0].message
        assert "return" in found[0].message

    def test_flags_missing_return_annotation_only(self):
        found = findings_for(
            """
            def estimate(graph: object, rounds: int):
                return 0.0
            """,
            "cascade/simulate.py",
            select=["RP005"],
        )
        assert codes(found) == ["RP005"]
        assert "return" in found[0].message

    def test_flags_public_method_and_skips_self(self):
        found = findings_for(
            """
            class Engine:
                def run(self, rounds: int):
                    return rounds
            """,
            "cascade/engine.py",
            select=["RP005"],
        )
        assert codes(found) == ["RP005"]
        assert "self" not in found[0].message

    def test_allows_fully_annotated(self):
        found = findings_for(
            """
            class Engine:
                def __init__(self, rounds: int) -> None:
                    self.rounds = rounds

                def run(self, budget: int) -> float:
                    return float(budget)
            """,
            "game/engine.py",
            select=["RP005"],
        )
        assert found == []

    def test_skips_private_functions_and_nested_helpers(self):
        found = findings_for(
            """
            def _helper(x):
                return x

            def public(x: int) -> int:
                def inner(y):
                    return y
                return inner(x)
            """,
            "core/x.py",
            select=["RP005"],
        )
        assert found == []

    def test_out_of_scope_package_not_linted(self):
        found = findings_for(
            "def f(x):\n    return x\n",
            "graphs/loaders.py",
            select=["RP005"],
        )
        assert found == []

    def test_suppression_on_def_line(self):
        found = findings_for(
            """
            def estimate(graph, rounds):  # reprolint: disable=RP005
                return 0.0
            """,
            "core/payoff.py",
            select=["RP005"],
        )
        assert found == []


class TestRP006NoAdHocSimulationLoops:
    def test_flags_spread_once_loop(self):
        found = findings_for(
            """
            def estimate(model, graph, seeds, rounds, generator):
                total = 0
                for _ in range(rounds):
                    total += model.spread_once(graph, seeds, generator)
                return total / rounds
            """,
            "core/payoff.py",
            select=["RP006"],
        )
        assert codes(found) == ["RP006"]
        assert "spread_once" in found[0].message

    def test_flags_spread_once_comprehension(self):
        found = findings_for(
            """
            def estimate(model, graph, seeds, rounds, generator):
                values = [
                    model.spread_once(graph, seeds, generator)
                    for _ in range(rounds)
                ]
                return sum(values) / rounds
            """,
            "algorithms/sweep.py",
            select=["RP006"],
        )
        assert codes(found) == ["RP006"]

    def test_flags_competitive_engine_loop(self):
        found = findings_for(
            """
            from repro.cascade.competitive import CompetitiveDiffusion

            def follower_spread(graph, model, profile, rounds, generator):
                engine = CompetitiveDiffusion(graph, model)
                total = 0.0
                for _ in range(rounds):
                    outcome = engine.run(profile, generator)
                    total += outcome.spread(1)
                return total / rounds
            """,
            "algorithms/follower.py",
            select=["RP006"],
        )
        assert codes(found) == ["RP006"]
        assert "CompetitiveDiffusion.run" in found[0].message

    def test_flags_engine_stored_on_self(self):
        found = findings_for(
            """
            from repro.cascade.competitive import CompetitiveDiffusion

            class Evaluator:
                def __init__(self, graph, model):
                    self.engine = CompetitiveDiffusion(graph, model)

                def average(self, profile, rounds, generator):
                    total = 0.0
                    while rounds:
                        total += self.engine.run(profile, generator).spread(0)
                        rounds -= 1
                    return total
            """,
            "core/blocking.py",
            select=["RP006"],
        )
        assert codes(found) == ["RP006"]

    def test_allows_single_run_outside_loop(self):
        found = findings_for(
            """
            from repro.cascade.competitive import CompetitiveDiffusion

            def one_shot(graph, model, profile, generator):
                engine = CompetitiveDiffusion(graph, model)
                return engine.run(profile, generator)
            """,
            "core/metrics.py",
            select=["RP006"],
        )
        assert found == []

    def test_allows_unrelated_run_calls_in_loops(self):
        found = findings_for(
            """
            def drive(tasks, runner):
                for task in tasks:
                    runner.run(task)
            """,
            "experiments/harness.py",
            select=["RP006"],
        )
        assert found == []

    def test_exec_package_is_exempt(self):
        found = findings_for(
            """
            def run(self, generator):
                for i in range(self.rounds):
                    self.values[i] = self.model.spread_once(
                        self.graph, self.seeds, generator
                    )
            """,
            "exec/jobs.py",
            select=["RP006"],
        )
        assert found == []

    def test_cascade_simulate_is_exempt(self):
        found = findings_for(
            """
            def estimate_spread(graph, model, seeds, rounds, generator):
                return [
                    model.spread_once(graph, seeds, generator)
                    for _ in range(rounds)
                ]
            """,
            "cascade/simulate.py",
            select=["RP006"],
        )
        assert found == []

    def test_suppression(self):
        found = findings_for(
            """
            def estimate(model, graph, seeds, rounds, generator):
                total = 0
                for _ in range(rounds):
                    total += model.spread_once(graph, seeds, generator)  # reprolint: disable=RP006
                return total / rounds
            """,
            "core/payoff.py",
            select=["RP006"],
        )
        assert found == []


class TestRP008UseSharedSnapshotPools:
    def test_flags_direct_sample_snapshots_call(self):
        found = findings_for(
            """
            from repro.cascade.snapshots import sample_snapshots

            def _select(self, graph, k, rng=None):
                masks = sample_snapshots(graph, self.model, 100, rng)
                return masks
            """,
            "algorithms/my_greedy.py",
            select=["RP008"],
        )
        assert codes(found) == ["RP008"]

    def test_flags_attribute_call(self):
        found = findings_for(
            """
            import repro.cascade.snapshots as snapshots

            def _select(self, graph, k, rng=None):
                return snapshots.sample_snapshots(graph, self.model, 10, rng)
            """,
            "algorithms/my_greedy.py",
            select=["RP008"],
        )
        assert codes(found) == ["RP008"]

    def test_pool_api_is_silent(self):
        found = findings_for(
            """
            def _select_pooled(self, graph, k, rng, pool):
                oracle = pool.oracle(self.model, self.num_snapshots)
                gains = pool.initial_gains(self.model, self.num_snapshots)
                return oracle, gains
            """,
            "algorithms/my_greedy.py",
            select=["RP008"],
        )
        assert found == []

    def test_out_of_scope_package_not_linted(self):
        found = findings_for(
            """
            from repro.cascade.snapshots import sample_snapshots

            def build_pool(graph, model, rng):
                return sample_snapshots(graph, model, 100, rng)
            """,
            "cascade/pools.py",
            select=["RP008"],
        )
        assert found == []

    def test_suppression_comment(self):
        found = findings_for(
            """
            from repro.cascade.snapshots import sample_snapshots

            def _select(self, graph, k, rng=None):
                return sample_snapshots(  # reprolint: disable=RP008
                    graph, self.model, 100, rng
                )
            """,
            "algorithms/my_greedy.py",
            select=["RP008"],
        )
        assert found == []


class TestRP009UseSpanTiming:
    def test_flags_perf_counter_pair_via_tracked_name(self):
        found = findings_for(
            """
            import time

            def work():
                started = time.perf_counter()
                do_things()
                return time.perf_counter() - started
            """,
            "core/pipeline.py",
            select=["RP009"],
        )
        assert codes(found) == ["RP009"]

    def test_flags_bare_perf_counter_import(self):
        found = findings_for(
            """
            from time import perf_counter

            def work():
                t0 = perf_counter()
                do_things()
                elapsed = perf_counter() - t0
                return elapsed
            """,
            "core/pipeline.py",
            select=["RP009"],
        )
        assert codes(found) == ["RP009"]

    def test_unrelated_subtraction_is_silent(self):
        found = findings_for(
            """
            import time

            def work(a, b):
                started = time.perf_counter()
                log(started)
                return a - b
            """,
            "core/pipeline.py",
            select=["RP009"],
        )
        assert found == []

    def test_rebound_name_is_silent(self):
        found = findings_for(
            """
            import time

            def work(budget):
                started = time.perf_counter()
                log(started)
                started = budget
                return 10.0 - started
            """,
            "core/pipeline.py",
            select=["RP009"],
        )
        assert found == []

    def test_obs_package_and_timing_module_exempt(self):
        snippet = """
            import time

            def measure():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
            """
        assert findings_for(snippet, "obs/trace.py", select=["RP009"]) == []
        assert findings_for(snippet, "utils/timing.py", select=["RP009"]) == []
        assert codes(
            findings_for(snippet, "utils/other.py", select=["RP009"])
        ) == ["RP009"]

    def test_suppression_comment(self):
        found = findings_for(
            """
            import time

            def work(journal):
                started = time.perf_counter()
                do_things()
                journal.run_end(
                    duration_seconds=time.perf_counter() - started,  # reprolint: disable=RP009
                )
            """,
            "core/pipeline.py",
            select=["RP009"],
        )
        assert found == []
