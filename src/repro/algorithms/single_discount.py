"""SingleDiscount heuristic (Chen, Wang & Yang, KDD'09).

The ``sdwc`` strategy of the paper: repeatedly pick the node with the
highest remaining degree, discounting each neighbour's degree by one for
every selected seed adjacent to it (the shared kernel of
:mod:`repro.algorithms.discount`).  Model-agnostic (the paper pairs it with
the weighted-cascade experiments).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.discount import DiscountSelector


class SingleDiscount(DiscountSelector):
    """SingleDiscount with random tie-breaking among equal degrees."""

    name = "sdwc"

    def score(self, degree: np.ndarray, t: np.ndarray) -> np.ndarray:
        return degree - t
