"""The four GetReal query workloads of the benchmark.

Each workload is one GetReal query shape, chosen so that a different layer
carries the query's time (see ``bench/README.md`` for the probe numbers):

* ``hep-ic-r2`` is select-heavy: MixGreedy's snapshot gains and CELF loop;
* ``hep-wc-r3`` is simulate-heavy with large cascades and no greedy strategy,
  so a selection change must leave it unchanged;
* ``phy-wc-r2-proc2`` runs on the process executor, so pickling, queue wait
  and parallel efficiency show;
* ``wiki-ic-r3`` is a large sparse graph with tiny cascades, where the fixed
  cost of each diffusion and O(n) allocations dominate.

This module is imported by the benchmark driver, which must run without
``repro`` on the path, so it imports nothing from the package; the child
process turns a :class:`Workload` into library objects with :func:`build`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

#: Default workload seed S; query i of a run uses ``rng = S * 1000 + i``.
DEFAULT_SEED = 2015

#: Offset of the untimed warm-up query's rng, ``S * 1000 + WARMUP_OFFSET``.
#: No timed query may reach it: a repeated rng is served from the selection
#: cache, which would time a cache hit instead of a query.
WARMUP_OFFSET = 999

#: Traced queries per trace run; they reuse the rngs of timed queries 0..2.
TRACED_QUERIES = 3


@dataclass(frozen=True)
class Workload:
    """One GetReal query shape: graph, model, strategy space and executor."""

    name: str
    dataset: str
    scale: float
    model: str  # "ic" or "wc"
    strategies: tuple[str, ...]  # "mixgreedy", "ddic", "sdwc", "random"
    num_groups: int
    rounds: int
    backend: str = "serial"
    workers: int = 1
    ic_probability: float = 0.08
    snapshots: int = 50
    k: int = 10

    def params(self) -> dict[str, object]:
        """Every parameter of the workload, for result provenance."""
        return dataclasses.asdict(self)

    def query_rng(self, seed: int, index: int) -> int:
        """The rng of query *index* under workload seed *seed*."""
        if not 0 <= index < WARMUP_OFFSET:
            raise ValueError(f"query index {index} outside [0, {WARMUP_OFFSET})")
        return seed * 1000 + index

    def warmup_rng(self, seed: int) -> int:
        return seed * 1000 + WARMUP_OFFSET


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hep-ic-r2",
            dataset="hep",
            scale=0.08,
            model="ic",
            strategies=("mixgreedy", "ddic"),
            num_groups=2,
            rounds=20,
        ),
        Workload(
            name="hep-wc-r3",
            dataset="hep",
            scale=0.08,
            model="wc",
            strategies=("ddic", "sdwc", "random"),
            num_groups=3,
            rounds=20,
        ),
        Workload(
            name="phy-wc-r2-proc2",
            dataset="phy",
            scale=0.05,
            model="wc",
            strategies=("mixgreedy", "sdwc"),
            num_groups=2,
            rounds=40,
            backend="process",
            workers=2,
        ),
        Workload(
            name="wiki-ic-r3",
            dataset="wiki",
            scale=0.05,
            model="ic",
            strategies=("ddic", "sdwc", "random"),
            num_groups=3,
            rounds=100,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A much cheaper variant for tests; never used for comparisons."""
    return dataclasses.replace(
        workload, rounds=max(2, workload.rounds // 10), snapshots=8
    )


def resolve(name: str, smoke_mode: bool = False) -> Workload:
    """The named workload, capped at this machine's CPU count."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
    workers = min(workload.workers, os.cpu_count() or 1)
    workload = dataclasses.replace(workload, workers=workers)
    return smoke(workload) if smoke_mode else workload


def build(workload: Workload, executor: object) -> tuple[object, list[object]]:
    """The cascade model and strategy list of *workload*.

    Uses only the model and selector constructors, so the benchmark runs
    the library's production defaults (no kernel or symmetry override).
    """
    import repro

    if workload.model == "ic":
        model = repro.IndependentCascade(workload.ic_probability)
        ddic = functools.partial(repro.DegreeDiscount, workload.ic_probability)
    else:
        model = repro.WeightedCascade()
        ddic = repro.DegreeDiscount  # the library's default edge probability
    factories = {
        "mixgreedy": functools.partial(repro.MixGreedy, model, workload.snapshots, executor=executor),
        "ddic": ddic,
        "sdwc": repro.SingleDiscount,
        "random": repro.RandomSeeds,
    }
    return model, [factories[name]() for name in workload.strategies]
