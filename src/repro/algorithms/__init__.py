"""End-to-end optimization algorithms: MPQ, the SMA baseline, multi-objective."""

from repro.algorithms.mpq import MPQReport, optimize_mpq
from repro.algorithms.sma import SMAReport, optimize_sma
from repro.algorithms.moq import (
    approximation_ratio,
    frontier_summary,
    optimize_multi_objective,
)

__all__ = [
    "MPQReport",
    "optimize_mpq",
    "SMAReport",
    "optimize_sma",
    "approximation_ratio",
    "frontier_summary",
    "optimize_multi_objective",
]
