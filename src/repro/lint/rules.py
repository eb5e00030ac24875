"""The per-file rule catalogue: RP001–RP004 and RP009.

Each rule is scoped to the packages where its invariant is load-bearing
(see :meth:`~repro.lint.base.Rule.applies_to`); scoping is by path parts so
test fixtures can opt into a rule simply by living under a directory with
the right name (``game/``, ``cascade/``, …).
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.lint.base import (
    Rule,
    annotation_mentions,
    dotted_name,
    is_float_like,
    iter_arguments,
    module_matches,
    root_name,
)

#: np.random attributes that name types, not sampling entry points — using
#: them (annotations, isinstance checks) is exactly the discipline RP001 wants.
_RNG_TYPE_NAMES = frozenset({"Generator", "BitGenerator", "SeedSequence"})


class NoGlobalRandom(Rule):
    """RP001: all randomness flows through an injected numpy ``Generator``.

    Direct ``random.*`` / ``np.random.*`` calls draw from process-global
    state, so a top-level seed no longer determines every stream and the
    payoff tensor stops being reproducible.  Only ``utils/rng.py`` may touch
    the global entry points (it is the single place generators are built).
    """

    code: ClassVar[str] = "RP001"
    name: ClassVar[str] = "no-global-random"
    rationale: ClassVar[str] = (
        "global RNG state breaks determinism-under-seed: a single top-level "
        "seed must deterministically derive every random stream"
    )
    hint: ClassVar[str] = (
        "accept rng: RandomSource and normalize via repro.utils.rng.as_rng; "
        "only utils/rng.py may call the global numpy/stdlib entry points"
    )

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        return module[-2:] != ("utils", "rng.py")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(node, "import of the stdlib 'random' module")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod == "random" or mod.startswith("random."):
            self.report(node, "import from the stdlib 'random' module")
        elif mod == "numpy.random" or mod.startswith("numpy.random."):
            names = {alias.name for alias in node.names}
            if not names <= _RNG_TYPE_NAMES:
                self.report(node, "import of numpy.random entry points")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] not in _RNG_TYPE_NAMES
            ):
                self.report(node, f"call to global RNG {name!r}")
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _RNG_TYPE_NAMES
            ):
                self.report(node, f"call to global RNG {name!r}")
        self.generic_visit(node)


class NoFloatEquality(Rule):
    """RP002: no exact ``==``/``!=`` against floats in payoff logic.

    Payoffs and mixture weights are Monte-Carlo estimates and products of
    probabilities; exact equality on them encodes an assumption about
    floating-point representation that refactors silently invalidate
    (e.g. a reordering that turns an exact 0.0 into 1e-17 flips a branch).
    """

    code: ClassVar[str] = "RP002"
    name: ClassVar[str] = "no-float-equality"
    rationale: ClassVar[str] = (
        "payoffs and mixture weights are estimates; exact float equality "
        "makes branch behaviour depend on rounding, not on the model"
    )
    hint: ClassVar[str] = (
        "use repro.utils.validation.nearly_zero / values_close (or "
        "math.isclose) with an explicit tolerance"
    )

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        return module_matches(module, "game", "core")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op in node.ops:
            if isinstance(op, (ast.Eq, ast.NotEq)):
                if any(is_float_like(operand) for operand in operands):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    self.report(node, f"exact float {symbol} comparison")
                    break
        self.generic_visit(node)


#: Method names that mutate their receiver — graph wrappers or the numpy
#: arrays they expose.  ``DiGraph`` is immutable by design; this list guards
#: against a future refactor adding mutators and a selector reaching for one.
_GRAPH_MUTATORS = frozenset(
    {
        "add_edge",
        "add_edges",
        "add_node",
        "add_nodes",
        "remove_edge",
        "remove_edges",
        "remove_node",
        "remove_nodes",
        "clear",
        "update",
        # in-place numpy mutations on arrays reached through the graph
        "fill",
        "sort",
        "partition",
        "put",
        "resize",
        "setfield",
    }
)


class NoGraphMutation(Rule):
    """RP003: seed selectors must treat the graph as read-only.

    Selectors run inside shared pipelines: the payoff estimator hands the
    *same* graph object to every (group, strategy) pair, so one selector
    mutating it corrupts every estimate that follows.  Work on copies
    (``graph.out_degrees().copy()``) instead.
    """

    code: ClassVar[str] = "RP003"
    name: ClassVar[str] = "no-graph-mutation"
    rationale: ClassVar[str] = (
        "the payoff estimator shares one graph across all selectors; a "
        "mutation by one strategy corrupts every later estimate"
    )
    hint: ClassVar[str] = (
        "copy before modifying (e.g. graph.out_degrees().copy()); never "
        "assign to, delete from, or call mutators on the graph parameter"
    )

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        return module_matches(module, "algorithms")

    def __init__(self, path: str, module: tuple[str, ...]):
        super().__init__(path, module)
        self._graph_params: list[set[str]] = []

    def _current_graphs(self) -> set[str]:
        return self._graph_params[-1] if self._graph_params else set()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        graphs = set(self._current_graphs())
        for arg in iter_arguments(node.args):
            if arg.arg in ("graph", "g") or annotation_mentions(
                arg.annotation, "DiGraph"
            ):
                if arg.arg not in ("self", "cls"):
                    graphs.add(arg.arg)
        self._graph_params.append(graphs)
        self.generic_visit(node)
        self._graph_params.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            owner = root_name(target)
            if owner in self._current_graphs():
                self.report(
                    target,
                    f"in-place modification of graph parameter {owner!r}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _GRAPH_MUTATORS:
            owner = root_name(func.value)
            if owner in self._current_graphs():
                self.report(
                    node,
                    f"call to mutator {func.attr!r} on graph parameter {owner!r}",
                )
        self.generic_visit(node)


_METRIC_FACTORIES = frozenset({"counter", "histogram"})


class CacheMetricHandles(Rule):
    """RP004: hot-path modules bind metric handles at import time.

    ``counter("x")`` is a registry lookup plus (on miss) a lock; the cascade
    inner loops run millions of iterations, so per-iteration registry calls
    — and the f-string name formatting that usually accompanies them — turn
    observability into measurable simulation cost.  Handles are stable
    across :func:`repro.obs.metrics.reset`, so module-level binding is safe.
    """

    code: ClassVar[str] = "RP004"
    name: ClassVar[str] = "cache-metric-handles"
    rationale: ClassVar[str] = (
        "registry lookups and metric-name formatting inside cascade loops "
        "tax every simulation; handles are stable and cacheable"
    )
    hint: ClassVar[str] = (
        "bind handles at module level (_SIMS = counter('cascade.simulations'))"
    )

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        if module_matches(module, "cascade"):
            return True
        return module[-2:] == ("core", "payoff.py")

    def __init__(self, path: str, module: tuple[str, ...]):
        super().__init__(path, module)
        self._factory_names: set[str] = set()
        self._module_aliases: set[str] = set()
        self._function_depth = 0

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod == "repro.obs.metrics":
            for alias in node.names:
                if alias.name in _METRIC_FACTORIES:
                    self._factory_names.add(alias.asname or alias.name)
        elif mod in ("repro.obs", "repro"):
            for alias in node.names:
                if alias.name == "metrics":
                    self._module_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro.obs.metrics" and alias.asname:
                self._module_aliases.add(alias.asname)
        self.generic_visit(node)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self._function_depth > 0:
            func = node.func
            factory: str | None = None
            if isinstance(func, ast.Name) and func.id in self._factory_names:
                factory = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _METRIC_FACTORIES
                and isinstance(func.value, ast.Name)
                and func.value.id in self._module_aliases
            ):
                factory = func.attr
            if factory is not None:
                self.report(
                    node,
                    f"metric factory {factory}(...) called inside a function "
                    "in a hot-path module",
                )
        self.generic_visit(node)


class UseSpanTiming(Rule):
    """RP009: ad-hoc ``perf_counter()`` pairs bypass the tracing layer.

    ``t0 = time.perf_counter(); ...; elapsed = time.perf_counter() - t0``
    measures a duration that no one else can see: it has no trace id, no
    histogram, and no journal record, so the waterfall in ``repro obs
    trace`` and the span table of ``repro journal`` silently omit it.  Wrapping the
    region in :func:`repro.obs.trace.span` (or a
    :class:`repro.utils.timing.Stopwatch` when a reusable timer object is
    wanted) yields the same number *and* feeds the telemetry pipeline.
    The ``repro/obs`` package and ``utils/timing.py`` implement the timing
    primitives themselves and are exempt; call sites where the raw float
    is the product (e.g. a journaled ``duration_seconds`` field) carry an
    explicit suppression.
    """

    code: ClassVar[str] = "RP009"
    name: ClassVar[str] = "use-span-timing"
    rationale: ClassVar[str] = (
        "raw perf_counter() timing pairs are invisible to the tracing "
        "layer: no span record, no histogram, no trace id — the duration "
        "exists only in a local variable"
    )
    hint: ClassVar[str] = (
        "wrap the timed region in repro.obs.trace.span(...) (or a "
        "utils.timing.Stopwatch); suppress with "
        "'# reprolint: disable=RP009' where the raw duration itself is "
        "the product (e.g. journaled duration_seconds fields)"
    )

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        if "obs" in module[:-1]:
            return False  # the timing primitives themselves live here
        return module[-2:] != ("utils", "timing.py")

    def __init__(self, path: str, module: tuple[str, ...]):
        super().__init__(path, module)
        self._clock_names: set[str] = set()

    @staticmethod
    def _is_clock_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] == "perf_counter"

    def _is_clock_value(self, node: ast.expr) -> bool:
        if self._is_clock_call(node):
            return True
        return isinstance(node, ast.Name) and node.id in self._clock_names

    def _record_clock(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is None or not isinstance(target, ast.Name):
            return
        if self._is_clock_call(value):
            self._clock_names.add(target.id)
        elif target.id in self._clock_names:
            self._clock_names.discard(target.id)  # rebound to something else

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_clock(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_clock(node.target, node.value)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Sub)
            and self._is_clock_value(node.left)
            and self._is_clock_value(node.right)
        ):
            self.report(
                node,
                "ad-hoc perf_counter() timing pair; the duration is "
                "invisible to spans/metrics/journal",
            )
        self.generic_visit(node)


ALL_RULES: tuple[type[Rule], ...] = (
    NoGlobalRandom,
    NoFloatEquality,
    NoGraphMutation,
    CacheMetricHandles,
    UseSpanTiming,
)


def rule_by_code(code: str) -> type[Rule]:
    """Look up a rule class by its ``RPxxx`` code."""
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"unknown rule code {code!r}; known: "
                   f"{', '.join(r.code for r in ALL_RULES)}")
