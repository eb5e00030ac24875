"""Per-layer spans recorded from outside the program.

The benchmark does not edit the library to trace it.  :class:`Tracer`
replaces the public callable at each layer boundary (``LAYER_TARGETS``)
with a wrapper that records a span: name, start, end, parent and an
optional label.  Spans live in memory until the child process reports them.

:func:`layer_metrics` turns one query's spans plus the query's delta of the
``repro.obs`` metrics registry into the per-layer metrics of
``BENCHMARK.json``.  A layer's self time is its span's duration minus the
durations of its direct children.  When a wrap target no longer exists (a
refactor moved it), only the metrics that need its spans are dropped.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

#: Wrap target ("module:attribute.path") -> span name.  Each is the public
#: callable through which a GetReal query enters that layer.
LAYER_TARGETS: dict[str, str] = {
    "repro:get_real": "getreal",
    # As bound in repro.core.getreal, which is where get_real looks it up.
    "repro.core.getreal:estimate_payoff_table": "payoff",
    "repro.core.getreal:solve_strategy_game": "core.solve",
    "repro.algorithms.base:SeedSelector.select": "algorithms.select",
    "repro.cascade.snapshots:SnapshotOracle.marginal_gain": "cascade.oracle",
    "repro.cascade.pools:SnapshotPool.masks": "cascade.pool.sample",
    "repro.cascade.pools:SnapshotPool.initial_gains": "cascade.pool.gains",
    "repro.exec.executor:Executor.run": "exec.batch",
}

#: Strategies with a per-strategy selection time in BENCHMARK.json.
STRATEGIES = ("mgic", "mgwc", "ddic", "sdwc", "random")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into the span list; -1 for a root span
    label: str | None = None
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


_ABSENT = object()


class Tracer:
    """Wraps layer callables and records the spans of every call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.installed: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets: Mapping[str, str] = LAYER_TARGETS) -> None:
        """Wrap every target; unresolvable targets are listed in ``missing``."""
        for target, span_name in targets.items():
            if self.wrap(target, span_name):
                self.installed.append(span_name)
            else:
                self.missing.append(span_name)

    def wrap(self, target: str, span_name: str) -> bool:
        """Replace *target* with a span-recording wrapper; False if absent."""
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner: object = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self._wrapper(original, span_name))
        return True

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._restore:
            owner, attr, saved = self._restore.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrapper(self, fn: Callable[..., object], span_name: str) -> Callable[..., object]:
        # Selection spans carry the selector's strategy name ("mgic", ...).
        labelled = span_name == "algorithms.select"
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            spans = self.spans
            parent = stack[-1] if stack else -1
            label = getattr(args[0], "name", None) if labelled and args else None
            span = Span(span_name, clock(), parent, label)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_seconds += span.seconds

        return traced


def span_cost_seconds(calls: int = 20_000) -> float:
    """The tracer's own cost per span, calibrated in this process.

    Times *calls* calls of a no-op through a wrapper against direct calls,
    so ``spans * span_cost_seconds()`` is the time tracing added to a query.
    """

    class _Target:
        @staticmethod
        def noop() -> None:
            return None

    tracer = Tracer()
    raw = _Target.noop
    wrapped = tracer._wrapper(raw, "calibration")

    def loop(fn: Callable[[], None]) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - started

    samples = []
    for _ in range(5):
        samples.append(loop(wrapped) - loop(raw))
        tracer.spans.clear()
    return max(0.0, statistics.median(samples) / calls)


def registry_totals() -> dict[str, float]:
    """Counter values and histogram totals of the ``repro.obs`` registry."""
    from repro.obs.metrics import get_registry

    snap = get_registry().snapshot()
    totals = {name: float(value) for name, value in snap["counters"].items()}
    for name, hist in snap["histograms"].items():
        totals[name] = float(hist["total"])
    return totals


def registry_delta(before: Mapping[str, float], after: Mapping[str, float]) -> dict[str, float]:
    """Per-name growth between two :func:`registry_totals` readings."""
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def _total(spans: Iterable[Span], name: str, label: str | None = None) -> float:
    return sum(s.seconds for s in spans if s.name == name and (label is None or s.label == label))


def _self_total(spans: Iterable[Span], name: str) -> float:
    return sum(s.self_seconds for s in spans if s.name == name)


def _batch_total(spans: list[Span], parent_name: str) -> float:
    return sum(
        s.seconds
        for s in spans
        if s.name == "exec.batch" and s.parent >= 0 and spans[s.parent].name == parent_name
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


#: name -> (span names needed, registry names needed, value(spans, delta, workers)).
_Metric = tuple[tuple[str, ...], tuple[str, ...], Callable[[list[Span], dict[str, float], int], float]]

METRICS: dict[str, _Metric] = {
    "algorithms.select_s": (
        ("algorithms.select",), (), lambda s, d, w: _total(s, "algorithms.select")
    ),
    "algorithms.select.self_s": (
        ("algorithms.select", "cascade.oracle", "cascade.pool.sample", "cascade.pool.gains"),
        (),
        lambda s, d, w: _self_total(s, "algorithms.select"),
    ),
    **{
        f"algorithms.select.{strategy}_s": (
            ("algorithms.select",),
            (),
            lambda s, d, w, strategy=strategy: _total(s, "algorithms.select", strategy),
        )
        for strategy in STRATEGIES
    },
    "cascade.oracle_s": (("cascade.oracle",), (), lambda s, d, w: _total(s, "cascade.oracle")),
    "cascade.oracle_evals": (
        ("cascade.oracle",), (), lambda s, d, w: float(sum(x.name == "cascade.oracle" for x in s))
    ),
    "cascade.pool.sample_s": (
        ("cascade.pool.sample",), (), lambda s, d, w: _total(s, "cascade.pool.sample")
    ),
    "cascade.pool_mask_bytes": (
        (), ("cascade.pool_mask_bytes",), lambda s, d, w: d["cascade.pool_mask_bytes"]
    ),
    "cascade.pool.gains.self_s": (
        ("cascade.pool.gains", "cascade.pool.sample", "exec.batch"),
        (),
        lambda s, d, w: _self_total(s, "cascade.pool.gains"),
    ),
    "exec.gains_batch_s": (
        ("cascade.pool.gains", "exec.batch"), (), lambda s, d, w: _batch_total(s, "cascade.pool.gains")
    ),
    "exec.sim_batch_s": (
        ("payoff", "exec.batch"), (), lambda s, d, w: _batch_total(s, "payoff")
    ),
    "cascade.simulations": (
        (), ("cascade.simulations",), lambda s, d, w: d["cascade.simulations"]
    ),
    "cascade.simulations_per_s": (
        ("payoff", "exec.batch"),
        ("cascade.simulations",),
        lambda s, d, w: _ratio(d["cascade.simulations"], _batch_total(s, "payoff")),
    ),
    "cascade.nodes_activated_per_sim": (
        (),
        ("cascade.nodes_activated", "cascade.simulations"),
        lambda s, d, w: _ratio(d["cascade.nodes_activated"], d["cascade.simulations"]),
    ),
    "exec.jobs": ((), ("exec.jobs_completed",), lambda s, d, w: d["exec.jobs_completed"]),
    "exec.batches": ((), ("exec.batches",), lambda s, d, w: d["exec.batches"]),
    "exec.queue_wait_s": (
        (), ("exec.queue_wait_seconds",), lambda s, d, w: d["exec.queue_wait_seconds"]
    ),
    "exec.busy_ratio": (
        (),
        ("exec.job_seconds", "exec.batch_seconds"),
        lambda s, d, w: _ratio(d["exec.job_seconds"], d["exec.batch_seconds"] * w),
    ),
    "exec.payload_bytes": (
        (), ("exec.job_payload_bytes",), lambda s, d, w: d["exec.job_payload_bytes"]
    ),
    "payoff.self_s": (
        ("payoff", "algorithms.select", "exec.batch"),
        (),
        lambda s, d, w: _self_total(s, "payoff"),
    ),
    "payoff.profiles_estimated": (
        (), ("payoff.profiles_estimated",), lambda s, d, w: d["payoff.profiles_estimated"]
    ),
    "core.solve_s": (("core.solve",), (), lambda s, d, w: _total(s, "core.solve")),
    "getreal.self_s": (
        ("getreal", "payoff", "core.solve"), (), lambda s, d, w: _self_total(s, "getreal")
    ),
    "cache.hits": ((), ("cache.hits",), lambda s, d, w: d["cache.hits"]),
    "cache.misses": ((), ("cache.misses",), lambda s, d, w: d["cache.misses"]),
}

def layer_metrics(
    spans: list[Span],
    delta: Mapping[str, float],
    workers: int,
    installed: Iterable[str],
) -> dict[str, float]:
    """One query's per-layer metrics; those needing a missing span are left out."""
    have = set(installed)
    out = {}
    for name, (needs_spans, needs_registry, value) in METRICS.items():
        if have.issuperset(needs_spans) and all(r in delta for r in needs_registry):
            out[name] = float(value(spans, dict(delta), workers))
    return out


def median_metrics(per_query: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over queries (metrics every query reported)."""
    if not per_query:
        return {}
    names = set(per_query[0]).intersection(*per_query[1:])
    return {name: statistics.median(q[name] for q in per_query) for name in sorted(names)}
