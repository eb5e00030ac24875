"""Correctness checks run on every GetReal query the benchmark times.

A violated check makes the query count as failed; it never aborts the run.
The checks re-derive what they need from the result's payoff table instead
of calling the library's own solver helpers, so a bug there cannot hide
itself:

* the mixture is a probability vector;
* all ``z**r`` profiles are present, each with one estimate per group;
* every spread mean lies in ``[0, n]``;
* ownership partition: the groups' means sum to at most ``n`` per profile;
* every cell carries at least ``ceil(rounds / 2)`` samples;
* a pure answer has no profitable deviation on the raw or the symmetrized
  game;
* a mixed answer has regret at most ``1e-6 * n`` on the symmetrized game.

:func:`tensor_digest` fingerprints the payoff tensor, so the driver can
check that a traced query reproduces the untraced one bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping, Sequence
from itertools import product

import numpy as np

#: Tolerance on probability sums and on payoff comparisons.
ATOL = 1e-9

#: A mixed answer's regret may be at most this share of the node count.
REGRET_SHARE = 1e-6


def payoff_tensor(estimates: Mapping[tuple[int, ...], Sequence[object]], z: int, r: int) -> np.ndarray:
    """The ``(z,)*r + (r,)`` tensor of spread means; KeyError if a profile is absent."""
    tensor = np.empty((z,) * r + (r,))
    for profile in product(range(z), repeat=r):
        tensor[profile] = [est.mean for est in estimates[profile]]
    return tensor


def tensor_digest(tensor: np.ndarray) -> str:
    """sha256 of the tensor's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(tensor, dtype=np.float64).tobytes()).hexdigest()


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Pool every (own action, multiset of rivals' actions) cell over players."""
    r = tensor.shape[-1]
    profiles = list(product(range(tensor.shape[0]), repeat=r))
    sums: dict[tuple[int, tuple[int, ...]], list[float]] = {}
    for profile in profiles:
        for i in range(r):
            key = (profile[i], tuple(sorted(profile[:i] + profile[i + 1 :])))
            sums.setdefault(key, []).append(float(tensor[profile + (i,)]))
    out = np.empty_like(tensor)
    for profile in profiles:
        for i in range(r):
            key = (profile[i], tuple(sorted(profile[:i] + profile[i + 1 :])))
            out[profile + (i,)] = math.fsum(sums[key]) / len(sums[key])
    return out


def has_profitable_deviation(tensor: np.ndarray, action: int, atol: float = ATOL) -> bool:
    """Whether some group gains more than *atol* by leaving ``(action,)*r``."""
    z, r = tensor.shape[0], tensor.shape[-1]
    diagonal = (action,) * r
    for i in range(r):
        for other in range(z):
            deviation = diagonal[:i] + (other,) + diagonal[i + 1 :]
            if tensor[deviation + (i,)] > tensor[diagonal + (i,)] + atol:
                return True
    return False


def symmetric_regret(tensor: np.ndarray, probabilities: np.ndarray) -> float:
    """Best pure-deviation gain of group 0 when every rival mixes *probabilities*."""
    payoff = tensor[..., 0]
    for _ in range(tensor.shape[-1] - 1):
        payoff = payoff @ probabilities  # average out the last rival
    return float(payoff.max() - probabilities @ payoff)


def check_query(result: object, *, num_nodes: int, z: int, r: int, rounds: int) -> list[str]:
    """Every violated check of one GetReal result, as messages (empty: ok)."""
    problems = []
    probs = np.asarray(result.mixture.probabilities, dtype=float)
    if probs.shape != (z,) or probs.min() < 0 or probs.max() > 1 or abs(probs.sum() - 1) > ATOL:
        problems.append(f"mixture is not a distribution over {z} strategies: {probs.tolist()}")
    estimates = result.payoff_table.estimates
    absent = [p for p in product(range(z), repeat=r) if p not in estimates]
    if absent:
        return problems + [f"profiles missing from the payoff table: {absent}"]
    floor = math.ceil(rounds / 2)
    for profile, per_player in estimates.items():
        if len(per_player) != r:
            problems.append(f"profile {profile} has {len(per_player)} estimates for {r} groups")
            continue
        means = [est.mean for est in per_player]
        if min(means) < 0 or max(means) > num_nodes:
            problems.append(f"profile {profile}: spread mean outside [0, {num_nodes}]: {means}")
        if sum(means) > num_nodes * (1 + ATOL):
            problems.append(f"profile {profile}: ownership partition broken, sum {sum(means)} > n")
        samples = min(est.samples for est in per_player)
        if samples < floor:
            problems.append(f"profile {profile}: {samples} samples < ceil(rounds/2) = {floor}")
    if problems:
        return problems
    tensor = payoff_tensor(estimates, z, r)
    symmetric = symmetrize(tensor)
    kind = result.kind
    if kind == "pure":
        action = result.pure_index
        if action is None or not np.isclose(probs[action], 1.0):
            problems.append(f"pure answer {action} does not match the mixture {probs.tolist()}")
        elif has_profitable_deviation(tensor, action) and has_profitable_deviation(
            symmetric, action
        ):
            problems.append(f"pure answer {action} has a profitable deviation")
    elif kind == "mixed":
        regret = symmetric_regret(symmetric, probs)
        if regret > REGRET_SHARE * num_nodes:
            problems.append(f"mixed answer has regret {regret:.3g} > {REGRET_SHARE} * n")
    else:
        problems.append(f"unknown equilibrium kind {kind!r}")
    return problems
