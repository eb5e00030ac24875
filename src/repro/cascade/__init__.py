"""Cascade models: IC/WC/LT, their competitive extensions, and MC estimators."""

from repro.cascade.base import CascadeModel
from repro.cascade.ic import IndependentCascade
from repro.cascade.wc import WeightedCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.competitive import (
    ClaimRule,
    CompetitiveDiffusion,
    CompetitiveOutcome,
    SeedIncidence,
    TieBreakRule,
    assign_initiators,
)
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.cascade.simulate import (
    SpreadEstimate,
    estimate_competitive_spread,
    estimate_spread,
)

__all__ = [
    "CascadeModel",
    "IndependentCascade",
    "WeightedCascade",
    "LinearThreshold",
    "ClaimRule",
    "CompetitiveDiffusion",
    "CompetitiveOutcome",
    "SeedIncidence",
    "TieBreakRule",
    "assign_initiators",
    "SnapshotOracle",
    "sample_snapshots",
    "SpreadEstimate",
    "estimate_competitive_spread",
    "estimate_spread",
]
