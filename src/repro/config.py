"""The runtime switches: five ``REPRO_*`` environment variables, parsed here.

==========================  ==============================================  ==========
variable                    meaning                                         default
==========================  ==============================================  ==========
``REPRO_BACKEND``           execution backend (``serial``/``process``)      ``serial``
``REPRO_WORKERS``           worker count of the process backend, >= 1       CPU count
``REPRO_SYMMETRY``          payoff-profile enumeration (``full``/           ``full``
                            ``reduce``)
``REPRO_CONTRACTS``         runtime invariant checks in the simulation      off
                            stack
``REPRO_DATA_DIR``          directory holding the real SNAP wiki-Talk       unset
                            edge list
==========================  ==============================================  ==========

:meth:`RunConfig.from_env` is the only reader of these variables; every
other module asks it.  Explicit arguments (``executor=``, ``symmetry=``,
CLI flags) take precedence over the config at each call site.  A value of
the wrong type — ``REPRO_WORKERS=abc``, ``REPRO_CONTRACTS=2`` — raises
:class:`~repro.errors.ConfigError` naming the variable.  Backend and
symmetry *names* are checked where they are resolved
(:func:`repro.exec.executor.build_executor`,
:func:`repro.core.payoff.resolve_symmetry`), so an explicit argument and
the variable fail the same way.

The variables are read on every call, not cached at import, so a test or
a CI matrix leg can change them between calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError

__all__ = [
    "BACKEND_ENV_VAR",
    "CONTRACTS_ENV_VAR",
    "DATA_DIR_ENV_VAR",
    "SYMMETRY_ENV_VAR",
    "WORKERS_ENV_VAR",
    "RunConfig",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"
WORKERS_ENV_VAR = "REPRO_WORKERS"
SYMMETRY_ENV_VAR = "REPRO_SYMMETRY"
CONTRACTS_ENV_VAR = "REPRO_CONTRACTS"
DATA_DIR_ENV_VAR = "REPRO_DATA_DIR"

_TRUE = frozenset({"1", "true", "on", "yes"})
_FALSE = frozenset({"", "0", "false", "off", "no"})


def _parse_bool(name: str, raw: str | None) -> bool:
    """The boolean value of variable *name*; unset or blank means off.

    Accepts ``1/0/true/false/on/off/yes/no`` in any case; anything else
    raises :class:`ConfigError` rather than silently meaning on or off.
    """
    value = (raw or "").strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ConfigError(
        f"{name} must be one of 1/0/true/false/on/off/yes/no, got {raw!r}"
    )


def _parse_workers(raw: str | None) -> int | None:
    value = (raw or "").strip()
    if not value:
        return None
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"{WORKERS_ENV_VAR} must be an integer >= 1 or unset, got {raw!r}"
        )
    return workers


@dataclass(frozen=True)
class RunConfig:
    """The resolved values of the five runtime switches."""

    backend: str = "serial"
    workers: int | None = None
    symmetry: str = "full"
    contracts: bool = False
    data_dir: Path | None = None

    @classmethod
    def from_env(cls) -> RunConfig:
        """Parse the switches from the process environment."""
        env = os.environ
        data_dir = env.get(DATA_DIR_ENV_VAR, "").strip()
        return cls(
            backend=env.get(BACKEND_ENV_VAR, "").strip() or "serial",
            workers=_parse_workers(env.get(WORKERS_ENV_VAR)),
            symmetry=env.get(SYMMETRY_ENV_VAR, "").strip() or "full",
            contracts=_parse_bool(CONTRACTS_ENV_VAR, env.get(CONTRACTS_ENV_VAR)),
            data_dir=Path(data_dir) if data_dir else None,
        )
