"""Stable, hashable cache-key tokens.

The work-sharing cache (:mod:`repro.cache.memo`) keys entries on *content*,
not identity: two selector instances constructed with the same parameters
must produce the same token, while any parameter difference that could change
the selection must change it.  Three token families cover the key space:

* :func:`params_token` — a frozen view of an object's public attributes
  (type name, ``name`` attribute, primitive fields, one level of nested
  objects such as a selector's diffusion model).
* :func:`rng_token` / :func:`rng_state` / :func:`set_rng_state` — the
  generator's ``bit_generator.state`` dict, frozen for keying and kept
  verbatim for restore-on-hit (a cache hit must leave the caller's RNG in
  exactly the state a cold run would have).
* ``DiGraph.fingerprint`` (on the graph itself) — a content hash of the CSR
  arrays.

Attributes named in :data:`EXCLUDED_ATTRS` never enter a token: the executor
backend is excluded because batched results are bit-identical across
backends (the PR-3 contract), so the backend choice must not segment the
cache.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = [
    "EXCLUDED_ATTRS",
    "freeze",
    "params_token",
    "rng_state",
    "rng_token",
    "set_rng_state",
]

#: Attribute names that never participate in a params token.
EXCLUDED_ATTRS = frozenset({"executor"})

_PRIMITIVES = (str, bytes, bool, int, float, type(None))


def freeze(value: Any, depth: int = 2) -> Any:
    """Convert ``value`` into a hashable, order-stable token.

    Containers freeze element-wise, mappings and sets by sorted key, enums
    by ``(type, value)``, numpy scalars/arrays by value.  Arbitrary objects
    recurse through :func:`params_token` while ``depth`` allows it and fall
    back to ``repr`` below that (a lossy but safe always-hashable terminal).
    """
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), freeze(item, depth)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item, depth) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((repr(item), freeze(item, depth)) for item in value))
    if depth > 0:
        return params_token(value, depth=depth - 1)
    return repr(value)


def params_token(obj: Any, depth: int = 2) -> tuple[Any, ...]:
    """Frozen view of ``obj``'s public attributes, suitable as a cache key.

    Captures the type name, the ``name`` attribute when present (selectors
    bake model identity into it), and every public instance attribute except
    those in :data:`EXCLUDED_ATTRS`, frozen via :func:`freeze`.
    """
    attrs: dict[str, Any] = {}
    values = getattr(obj, "__dict__", None)
    if values is None:
        slots = getattr(type(obj), "__slots__", ())
        values = {
            name: getattr(obj, name) for name in slots if hasattr(obj, name)
        }
    for name, value in values.items():
        if name.startswith("_") or name in EXCLUDED_ATTRS:
            continue
        attrs[name] = freeze(value, depth)
    return (
        type(obj).__name__,
        freeze(getattr(obj, "name", None), 0),
        tuple(sorted(attrs.items())),
    )


def rng_state(generator: np.random.Generator) -> dict[str, Any]:
    """The generator's full bit-generator state (verbatim, for restore)."""
    state = generator.bit_generator.state
    assert isinstance(state, dict)
    return state


def set_rng_state(generator: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a state previously captured with :func:`rng_state`."""
    generator.bit_generator.state = state


def rng_token(generator: np.random.Generator) -> Any:
    """Hashable token of the generator's current state (for cache keys)."""
    return freeze(rng_state(generator), depth=4)
