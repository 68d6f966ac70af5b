"""repro — Parallelizing Query Optimization on Shared-Nothing Architectures.

A from-scratch Python reproduction of Trummer & Koch (PVLDB 9(9), 2016):
the MPQ massively parallel query optimizer, its plan-space partitioning
scheme for left-deep and bushy plan spaces, the SMA fine-grained baseline,
single- and multi-objective pruning, and a simulated shared-nothing cluster.

Quickstart::

    from repro import PlanSpace, make_star_query, optimize_mpq, optimize_serial

    query = make_star_query(8, seed=1)
    serial = optimize_serial(query)              # classical Selinger DP
    report = optimize_mpq(query, n_workers=16)   # MPQ over 16 partitions
    assert report.best.cost[0] == min(p.cost[0] for p in serial.plans)

README.md's "Enumeration backends" and "Layered architecture" sections
describe the DP cores and the serving stack.
"""

from repro.config import (
    DEFAULT_SETTINGS,
    MULTI_OBJECTIVE,
    SINGLE_OBJECTIVE,
    Backend,
    Objective,
    OptimizerSettings,
    PlanSpace,
)
from repro.query import (
    Catalog,
    Column,
    JoinGraphKind,
    JoinPredicate,
    Query,
    SteinbrunnGenerator,
    Table,
    make_chain_query,
    make_clique_query,
    make_cycle_query,
    make_star_query,
)
from repro.plans import JoinAlgorithm, JoinPlan, Plan, ScanPlan, SortOrder
from repro.cost import CardinalityEstimator, CostModel
from repro.core import (
    MasterResult,
    PartitionResult,
    max_partitions,
    optimize_parallel,
    optimize_serial,
    partition_constraints,
    usable_partitions,
)
from repro.cluster import (
    ClusterModel,
    NetworkModel,
    PersistentProcessPoolExecutor,
    SerialPartitionExecutor,
)
from repro.service import (
    AsyncGatewayStats,
    AsyncOptimizerGateway,
    GatewayOverloadedError,
    GatewayStats,
    OptimizerService,
    ServiceResult,
    ShardedOptimizerGateway,
    TieredPlanCache,
    canonicalize,
    fingerprint,
)
from repro.algorithms import (
    MPQReport,
    SMAReport,
    optimize_mpq,
    optimize_multi_objective,
    optimize_sma,
)
from repro.algorithms.pqo import PQOResult, optimize_parametric
from repro.query.io import load_query, save_query

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SETTINGS",
    "MULTI_OBJECTIVE",
    "SINGLE_OBJECTIVE",
    "Backend",
    "Objective",
    "OptimizerSettings",
    "PlanSpace",
    "Catalog",
    "Column",
    "JoinGraphKind",
    "JoinPredicate",
    "Query",
    "SteinbrunnGenerator",
    "Table",
    "make_chain_query",
    "make_clique_query",
    "make_cycle_query",
    "make_star_query",
    "JoinAlgorithm",
    "JoinPlan",
    "Plan",
    "ScanPlan",
    "SortOrder",
    "CardinalityEstimator",
    "CostModel",
    "MasterResult",
    "PartitionResult",
    "max_partitions",
    "optimize_parallel",
    "optimize_serial",
    "partition_constraints",
    "usable_partitions",
    "ClusterModel",
    "NetworkModel",
    "PersistentProcessPoolExecutor",
    "SerialPartitionExecutor",
    "AsyncGatewayStats",
    "AsyncOptimizerGateway",
    "GatewayOverloadedError",
    "GatewayStats",
    "OptimizerService",
    "ServiceResult",
    "ShardedOptimizerGateway",
    "TieredPlanCache",
    "canonicalize",
    "fingerprint",
    "MPQReport",
    "SMAReport",
    "optimize_mpq",
    "optimize_multi_objective",
    "optimize_sma",
    "PQOResult",
    "optimize_parametric",
    "load_query",
    "save_query",
    "__version__",
]
