"""MPQ — massively parallel query optimization, end to end.

Thin composition of the core pieces: run Algorithm 1 (master + workers) on
an executor, then attach the simulated-cluster timing and network accounting
that the paper's figures report.  This is the main entry point library users
call; ``repro.optimize`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulator import (
    DEFAULT_CLUSTER,
    ClusterModel,
    SimulatedTiming,
    simulate_mpq_run,
)
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.master import MasterResult, PartitionExecutor, optimize_parallel
from repro.plans.plan import Plan
from repro.query.query import Query


@dataclass
class MPQReport:
    """Everything one MPQ run produces: plans, per-partition stats, timing."""

    result: MasterResult
    simulated: SimulatedTiming
    settings: OptimizerSettings

    @property
    def best(self) -> Plan:
        """Cheapest plan by the first metric."""
        return self.result.best

    @property
    def plans(self) -> list[Plan]:
        """All returned plans (singleton, or the Pareto frontier)."""
        return self.result.plans

    @property
    def n_partitions(self) -> int:
        """Partitions actually used (largest supported power of two)."""
        return self.result.n_partitions

    @property
    def backend_used(self) -> str:
        """The enumeration backend that ran the worker DP (observability).

        With ``Backend.AUTO`` this reports what AUTO resolved to — the only
        way to tell an intended fastdp run from a routing surprise.
        """
        return self.result.backend_used

    @property
    def simulated_time_ms(self) -> float:
        """Simulated end-to-end optimization time (paper's "Time" axis)."""
        return self.simulated.total_ms

    @property
    def max_worker_time_ms(self) -> float:
        """Simulated slowest-worker compute time (paper's "W-Time" axis)."""
        return self.simulated.max_worker_compute_s * 1e3

    @property
    def network_bytes(self) -> int:
        """Total network traffic (paper's "Network (bytes)" axis)."""
        return self.simulated.network_bytes

    @property
    def max_worker_memory_relations(self) -> int:
        """Peak per-worker memotable entries (paper's "Memory (relations)")."""
        return self.result.max_worker_table_entries


def optimize_mpq(
    query: Query,
    n_workers: int,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    cluster: ClusterModel = DEFAULT_CLUSTER,
    executor: PartitionExecutor | None = None,
) -> MPQReport:
    """Optimize ``query`` with MPQ over ``n_workers`` workers.

    ``executor`` selects how partition tasks physically run: the serial loop
    by default, or a warm
    :class:`~repro.cluster.executors.PersistentProcessPoolExecutor`;
    ``cluster`` parameterizes the simulated shared-nothing timing attached
    to the report, composed afterwards from the workers' counters.
    """
    result = optimize_parallel(query, n_workers, settings, executor)
    simulated = simulate_mpq_run(cluster, query, result)
    return MPQReport(result=result, simulated=simulated, settings=settings)
