"""IM seed-selection algorithms — the strategy space Φ of the paper.

The registry pre-populates the paper's four strategies plus the extra
baselines, so experiments can be configured by the short names used in the
paper's figure legends:

>>> from repro.algorithms import get_algorithm
>>> get_algorithm("ddic").name
'ddic'
"""

from repro.algorithms.base import (
    SeedSelector,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.algorithms.greedy import MixGreedy
from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.single_discount import SingleDiscount
from repro.algorithms.heuristics import HighDegree, PageRankSeeds, RandomSeeds
from repro.algorithms.follower import FollowerBestResponse

__all__ = [
    "SeedSelector",
    "get_algorithm",
    "register_algorithm",
    "registered_algorithms",
    "MixGreedy",
    "DegreeDiscount",
    "SingleDiscount",
    "HighDegree",
    "PageRankSeeds",
    "RandomSeeds",
    "FollowerBestResponse",
]


def _register_defaults() -> None:
    from repro.cascade.ic import IndependentCascade
    from repro.cascade.wc import WeightedCascade

    register_algorithm(
        "mgic",
        lambda probability=0.01, num_snapshots=100: MixGreedy(
            IndependentCascade(probability), num_snapshots
        ),
    )
    register_algorithm(
        "mgwc",
        lambda num_snapshots=100: MixGreedy(WeightedCascade(), num_snapshots),
    )
    register_algorithm("ddic", DegreeDiscount)
    register_algorithm("sdwc", SingleDiscount)
    register_algorithm("degree", HighDegree)
    register_algorithm("random", RandomSeeds)
    register_algorithm("pagerank", PageRankSeeds)


_register_defaults()
