"""Differential-testing infrastructure for the enumeration backends.

Public surface of the oracle that guards hot-path rewrites: see
:mod:`repro.testing.differential` for the full story, and the "Enumeration
backends" section of the README for how to vet a new backend.
"""

from repro.testing.differential import (
    DEFAULT_BACKENDS,
    EXHAUSTIVE_MAX_TABLES,
    ORACLE_FEATURES,
    ORACLE_OBJECTIVE_SETS,
    BackendRoutingError,
    FrontierMismatch,
    FrontierSignature,
    OracleOutcome,
    assert_equivalent_frontiers,
    frontier,
    induced_subquery,
    naive_bushy_operands,
    run_differential_oracle,
)

__all__ = [
    "DEFAULT_BACKENDS",
    "EXHAUSTIVE_MAX_TABLES",
    "ORACLE_FEATURES",
    "ORACLE_OBJECTIVE_SETS",
    "BackendRoutingError",
    "FrontierMismatch",
    "FrontierSignature",
    "OracleOutcome",
    "assert_equivalent_frontiers",
    "frontier",
    "induced_subquery",
    "naive_bushy_operands",
    "run_differential_oracle",
]
