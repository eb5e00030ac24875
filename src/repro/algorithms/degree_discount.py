"""DegreeDiscountIC heuristic (Chen, Wang & Yang, KDD'09).

The ``ddic`` strategy of the paper.  Maintains for every node *v* a
discounted degree

    dd_v = d_v − 2·t_v − (d_v − t_v)·t_v·p

where ``d_v`` is *v*'s degree, ``t_v`` the number of already-selected seeds
among its neighbours and ``p`` the IC edge probability; repeatedly picks the
node with the highest ``dd_v`` (the shared kernel of
:mod:`repro.algorithms.discount`).  Designed for IC with uniform small *p*,
but usable as a degree-style heuristic under any model.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.discount import DiscountSelector
from repro.utils.validation import check_probability


class DegreeDiscount(DiscountSelector):
    """DegreeDiscountIC with random tie-breaking among equal scores."""

    name = "ddic"

    def __init__(self, probability: float = 0.01) -> None:
        self.probability = check_probability(probability, "probability")

    def score(self, degree: np.ndarray, t: np.ndarray) -> np.ndarray:
        return degree - 2.0 * t - (degree - t) * t * self.probability

    def __repr__(self) -> str:
        return f"DegreeDiscount(p={self.probability})"
