"""Opt-in runtime contracts for the simulation stack.

Static rules catch what is visible in the source; these contracts catch what
only manifests at runtime — a cascade model whose edge probabilities drift
outside ``[0, 1]``, an ownership array that re-assigns a claimed node, a
spread exceeding ``|V|``.  Any violation means the payoff tensor (and hence
the equilibrium) is garbage, so contract failures raise immediately.

Contracts are **off by default** (zero overhead beyond one config read per
simulation) and enabled by setting ``REPRO_CONTRACTS=1`` in the
environment — CI runs one tier-1 pass with them on.  Checks are vectorized
and run once per simulation, not per node, so the enabled-mode overhead is
a few array comparisons per diffusion.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import RunConfig


class ContractViolation(AssertionError):
    """A runtime invariant of the simulation stack was violated.

    Derives from :class:`AssertionError` because a violation is a logic
    error in the library (or a hostile model implementation), never a
    recoverable domain condition.
    """


def enabled() -> bool:
    """Whether runtime contracts are active (``REPRO_CONTRACTS`` on)."""
    return RunConfig.from_env().contracts


def check_probabilities(values: object, name: str = "probabilities") -> None:
    """Every entry of *values* must be a finite probability in ``[0, 1]``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contain non-finite values")
    low = float(arr.min())
    high = float(arr.max())
    if low < 0.0 or high > 1.0:
        raise ContractViolation(
            f"{name} outside [0, 1]: min={low!r}, max={high!r}"
        )


def check_ownership(
    owner: np.ndarray,
    initiators: Sequence[Sequence[int]],
    num_groups: int,
) -> None:
    """Post-diffusion ownership invariants.

    * every owner value is ``-1`` (inactive) or a valid group index;
    * claimed nodes never switch groups — in particular every initiator of
      group *j* still belongs to *j* when the diffusion ends (initiators are
      the only nodes claimed before round 1, so this pins the paper's
      "once claimed, never re-claimed" assumption at both ends of the run).
    """
    owner = np.asarray(owner)
    if owner.size and (owner.min() < -1 or owner.max() >= num_groups):
        raise ContractViolation(
            f"owner array contains group ids outside [-1, {num_groups}): "
            f"min={int(owner.min())}, max={int(owner.max())}"
        )
    for group, nodes in enumerate(initiators):
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if nodes.size == 0:
            continue
        switched = nodes[owner[nodes] != group]
        if switched.size:
            raise ContractViolation(
                f"claimed nodes switched groups: initiators {switched.tolist()} "
                f"of group {group} ended owned by "
                f"{owner[switched].tolist()}"
            )


def check_spreads(spreads: object, num_nodes: int, name: str = "spreads") -> None:
    """Per-group spreads must be non-negative and sum to at most ``|V|``."""
    arr = np.asarray(spreads, dtype=float)
    if arr.size == 0:
        return
    if float(arr.min()) < 0.0:
        raise ContractViolation(f"{name} contain negative entries: {arr.tolist()}")
    total = float(arr.sum())
    if total > num_nodes:
        raise ContractViolation(
            f"{name} sum to {total}, exceeding the graph's {num_nodes} nodes"
        )


def check_batch(
    results: Sequence[Sequence[object]],
    num_nodes: Sequence[int | None],
    name: str = "batch",
) -> None:
    """Post-batch invariants of the execution engine.

    * the backend returned exactly one result per submitted job;
    * every estimate of every job is finite and, when the job carries a
      graph bound, its mean lies in ``[0, |V|]`` — a garbage worker result
      (truncated pickle, mismatched stream) corrupts the payoff tensor as
      surely as a broken model does;
    * every seed list of a selection job's result holds distinct node ids,
      in ``[0, |V|)`` when the job carries a graph bound.
    """
    if len(results) != len(num_nodes):
        raise ContractViolation(
            f"{name}: backend returned {len(results)} results for "
            f"{len(num_nodes)} jobs"
        )
    for job_index, (estimates, bound) in enumerate(zip(results, num_nodes)):
        high = np.inf if bound is None else bound
        for estimate in estimates:
            seed_lists = getattr(estimate, "seeds", None)
            if seed_lists is not None:
                for seeds in seed_lists:
                    ids = np.asarray(seeds, dtype=np.int64)
                    if np.unique(ids).size != ids.size or ((ids < 0) | (ids >= high)).any():
                        raise ContractViolation(
                            f"{name}: job {job_index} selected invalid seeds {list(seeds)}"
                        )
                continue
            mean = np.asarray(getattr(estimate, "mean", np.nan), dtype=float)
            if not np.isfinite(mean).all():
                raise ContractViolation(
                    f"{name}: job {job_index} produced a non-finite mean"
                )
            outside = mean[(mean < 0.0) | (mean > high)]
            if outside.size:
                raise ContractViolation(
                    f"{name}: job {job_index} mean {outside[0]} outside "
                    f"[0, {bound}]"
                )


def check_spread_estimate(mean: float, num_nodes: int, name: str = "spread") -> None:
    """A Monte-Carlo spread estimate must land in ``[0, |V|]``."""
    if not np.isfinite(mean):
        raise ContractViolation(f"{name} estimate is non-finite: {mean!r}")
    if mean < 0.0 or mean > num_nodes:
        raise ContractViolation(
            f"{name} estimate {mean} outside [0, {num_nodes}]"
        )
