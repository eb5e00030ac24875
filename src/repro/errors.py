"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` raised
by Python itself) from domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """A ``REPRO_*`` environment variable holds a value it cannot take."""


class GraphError(ReproError):
    """A graph is malformed or an operation received an invalid node/edge."""


class GraphFormatError(GraphError):
    """An edge-list file (SNAP format) could not be parsed."""


class CascadeError(ReproError):
    """A cascade model was configured or driven incorrectly."""


class SeedSelectionError(ReproError):
    """An IM algorithm could not produce a valid seed set."""


class GameError(ReproError):
    """A normal-form game is malformed (shape/player mismatch)."""


class EquilibriumError(GameError):
    """No equilibrium of the requested kind could be computed."""


class PayoffEstimationError(ReproError):
    """Monte-Carlo payoff estimation failed or was configured incorrectly."""


class ExperimentError(ReproError):
    """An experiment runner received an invalid configuration."""


class TrajectoryError(ExperimentError):
    """A benchmark trajectory file is corrupt or an entry is malformed."""


class GateError(ExperimentError):
    """A regression gate was misconfigured or lacked the data to run."""


class ExecutionError(ReproError):
    """The batched execution engine was misconfigured or a backend failed."""


class ObservabilityError(ReproError):
    """The observability layer was misconfigured."""


class JournalError(ObservabilityError):
    """A run journal could not be written or parsed."""
