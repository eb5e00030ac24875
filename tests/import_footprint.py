"""Report which scipy and linter modules a fresh GetReal process loads.

Run in a fresh interpreter, this imports :mod:`repro`, answers two small
GetReal queries on the hep surrogate (MixGreedy vs DegreeDiscount, two
groups) and prints one JSON object:

* ``parent`` -- the ``scipy*`` modules in this process's ``sys.modules``
  after the import and after both queries;
* ``lint`` -- the ``repro.lint*`` modules loaded by ``import repro``;
* ``workers`` -- the ``scipy*`` modules each process-pool worker reports
  through a probe job run after the pooled query;
* ``kinds`` -- the equilibrium kind of the serial and the pooled query.

``tests/test_import_footprint.py`` runs it; by hand::

    PYTHONPATH=src python tests/import_footprint.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np


def loaded(package: str) -> list[str]:
    """The loaded modules of *package*, sorted."""
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))


def scipy_modules() -> list[str]:
    """The loaded modules of the scipy package, sorted."""
    return loaded("scipy")


@dataclass(frozen=True)
class ScipyProbeJob:
    """A job whose one-sample estimate is its worker's count of scipy modules."""

    num_nodes = None

    def run(self, generator: np.random.Generator) -> tuple[object, ...]:
        from repro.cascade.estimate import SpreadEstimate

        return (SpreadEstimate(float(len(scipy_modules())), 0.0, 1),)


def main() -> dict[str, object]:
    import repro
    from repro.exec import Executor

    after_import = scipy_modules()
    lint_after_import = loaded("repro.lint")
    graph = repro.hep(scale=0.02)
    model = repro.IndependentCascade(0.05)
    kinds = []
    workers = []
    for backend, count in (("serial", 1), ("process", 2)):
        with Executor(backend, count) as executor:
            strategies = [repro.MixGreedy(model, 8, executor=executor), repro.DegreeDiscount(0.05)]
            result = repro.get_real(
                graph, model, strategies, num_groups=2, k=2, rounds=10, rng=0, executor=executor
            )
            kinds.append(result.kind)
            if backend == "process":
                probes = executor.run([ScipyProbeJob() for _ in range(2 * count)], rng=0)
                workers = [int(outcome.estimates[0].mean) for outcome in probes]
    return {
        "parent": sorted(set(after_import) | set(scipy_modules())),
        "lint": lint_after_import,
        "workers": workers,
        "kinds": kinds,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
