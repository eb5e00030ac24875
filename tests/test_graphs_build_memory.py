"""Graph construction stays within a small multiple of the finished CSR.

``tracemalloc`` sees every numpy data buffer, so its peak over a build is
the largest set of arrays alive at once.  The bounds are ratios to the
bytes of the five CSR arrays the graph keeps.  Before the construction
path was rewritten for bounded temporaries, ``wiki(scale=0.05)`` peaked at
7.4× and the ``from_arrays`` input below at 5.0×.
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Callable

import numpy as np

from repro.graphs.datasets import wiki
from repro.graphs.digraph import DiGraph


def _csr_bytes(graph: DiGraph) -> int:
    return sum(
        arr.nbytes
        for arr in (
            graph.out_indptr,
            graph.out_indices,
            graph.in_indptr,
            graph.in_indices,
            graph.edge_ids,
        )
    )


def _peak_ratio(build: Callable[[], DiGraph]) -> float:
    tracemalloc.start()
    try:
        graph = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / _csr_bytes(graph)


def test_wiki_build_peak_is_bounded() -> None:
    assert _peak_ratio(lambda: wiki(scale=0.05)) <= 3.0


def test_from_arrays_peak_is_bounded() -> None:
    rng = np.random.default_rng(1)
    n = 100_000
    src = rng.integers(0, n, 400_000)
    dst = rng.integers(0, n, 400_000)
    src[:1000] = dst[:1000]  # self-loops
    src[-1000:] = src[1000:2000]  # repeats of earlier arcs
    dst[-1000:] = dst[1000:2000]
    assert _peak_ratio(lambda: DiGraph.from_arrays(n, src, dst)) <= 2.5
