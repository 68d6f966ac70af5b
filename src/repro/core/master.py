"""The master-side algorithm (paper Algorithm 1).

The master's job is deliberately tiny — that is the point of the paper's
coarse-grained decomposition.  Given a query and ``m`` workers it:

1. determines the usable number of partitions (largest power of two that the
   query size supports, Section 4.2);
2. dispatches ``(query, partition_id, n_partitions, settings)`` to each
   worker through a pluggable executor (the serial loop below, or the warm
   process pool of :mod:`repro.cluster.executors`); simulated cluster
   timing is not an executor but is composed afterwards from the workers'
   counters by :func:`repro.cluster.simulator.simulate_mpq_run`;
3. applies ``FinalPrune`` over the returned partition-optimal plans.

Everything the master does is linear in ``m`` and in the query size
(Theorem 5); the per-partition work happens in ``repro.core.worker``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.constraints import usable_partitions
from repro.core.worker import PartitionResult, optimize_partition
from repro.cost.pruning import final_prune, make_pruning
from repro.plans.plan import Plan, plan_tie_key
from repro.query.query import Query


class PartitionExecutor(Protocol):
    """Anything that can run partition tasks and return their results."""

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        """Run all ``n_partitions`` worker tasks and collect their results."""
        ...  # pragma: no cover - protocol


class SerialPartitionExecutor:
    """Run all partitions sequentially in the calling process (the default)."""

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        return [
            optimize_partition(query, partition_id, n_partitions, settings)
            for partition_id in range(n_partitions)
        ]


@dataclass
class MasterResult:
    """Outcome of one parallel optimization: plans plus per-partition stats."""

    plans: list[Plan]
    n_partitions: int
    requested_workers: int
    partition_results: list[PartitionResult] = field(repr=False, default_factory=list)
    #: Wall-clock of the final-pruning pass on the master.
    master_prune_s: float = 0.0
    #: End-to-end wall-clock of `optimize_parallel` (executor included).
    total_wall_s: float = 0.0

    @property
    def best(self) -> Plan:
        """Cheapest plan by the first metric (the plan a DBMS would run).

        Ties are broken by the deterministic cross-backend rule of
        :func:`repro.plans.plan.plan_tie_key`, not by generation order.
        """
        if not self.plans:
            raise ValueError("optimization produced no plan")
        return min(self.plans, key=plan_tie_key)

    @property
    def backend_used(self) -> str:
        """Name of the enumeration backend that ran the partitions.

        Joins distinct names with ``+`` in the (pathological) case where
        partitions report different backends — surfacing the disagreement
        beats hiding it.  Empty when no partition results are attached
        (e.g. synthetic results in tests).
        """
        names: list[str] = []
        for result in self.partition_results:
            name = result.stats.backend_used
            if name and name not in names:
                names.append(name)
        return "+".join(names)

    @property
    def max_worker_wall_s(self) -> float:
        """Slowest partition's wall-clock ("W-Time" in the paper's figures).

        0.0 when no partition results are attached (synthetic results, a
        case ``backend_used`` supports too) rather than a ``ValueError``
        from ``max()`` of an empty sequence.
        """
        return max(
            (result.stats.wall_time_s for result in self.partition_results),
            default=0.0,
        )

    @property
    def max_worker_table_entries(self) -> int:
        """Peak memotable size over workers ("Memory (relations)").

        0 when no partition results are attached, matching
        :attr:`max_worker_wall_s`.
        """
        return max(
            (result.stats.table_entries for result in self.partition_results),
            default=0,
        )


def optimize_parallel(
    query: Query,
    n_workers: int,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    executor: PartitionExecutor | None = None,
) -> MasterResult:
    """Parallel query optimization over ``n_workers`` workers (Algorithm 1).

    If ``n_workers`` exceeds what the query supports — or is not a power of
    two — the largest usable power of two is taken, as in the paper.
    """
    started = time.perf_counter()
    n_partitions = usable_partitions(query.n_tables, n_workers, settings.plan_space)
    runner = executor if executor is not None else SerialPartitionExecutor()
    partition_results = runner.map_partitions(query, n_partitions, settings)
    if len(partition_results) != n_partitions:
        raise RuntimeError(
            f"executor returned {len(partition_results)} results "
            f"for {n_partitions} partitions"
        )
    prune_started = time.perf_counter()
    pruning = make_pruning(settings, n_tables=query.n_tables)
    plans = final_prune(pruning, (result.plans for result in partition_results))
    finished = time.perf_counter()
    return MasterResult(
        plans=plans,
        n_partitions=n_partitions,
        requested_workers=n_workers,
        partition_results=partition_results,
        master_prune_s=finished - prune_started,
        total_wall_s=finished - started,
    )
