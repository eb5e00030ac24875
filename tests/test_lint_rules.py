"""Per-rule fixture tests for the per-file reprolint rules (RP001–RP004, RP009).

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
            "RP001", "RP002", "RP003", "RP004", "RP009",
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
