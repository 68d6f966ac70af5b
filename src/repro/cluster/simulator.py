"""Shared-nothing cluster timing model.

The substitution for the paper's 100-node Spark cluster:
worker DP runs are executed in-process and *instrumented*; this module
composes their counted operations with a network and task-overhead model
into simulated wall-clock time, the quantity the paper's "Time (ms)" axes
report.

Composition for one MPQ run (Algorithm 1's structure):

1. the master serially sends one task per worker (time linear in ``m``,
   Theorem 5);
2. each worker starts after its task arrives plus a fixed task-setup
   overhead (Spark executor task launch), then computes for
   ``counted ops x per-op cost`` seconds;
3. the master serially receives one result message per worker;
4. the master performs the final pruning pass (linear in returned plans).

Per-op costs default to Java-like magnitudes so simulated times land in the
paper's ranges; they are explicit parameters, not hidden calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import NetworkAccountant, NetworkModel
from repro.cluster.serialization import plans_bytes, task_bytes
from repro.core.master import MasterResult
from repro.core.worker import WorkerStats
from repro.query.query import Query


@dataclass(frozen=True)
class ClusterModel:
    """Tunable constants of the simulated shared-nothing cluster."""

    network: NetworkModel = field(default_factory=NetworkModel)
    #: Per-task scheduling/launch overhead (Spark-like, dominates tiny tasks).
    task_setup_s: float = 0.05
    #: Cost of one costed join candidate in the DP inner loop.
    seconds_per_plan: float = 1e-6
    #: Cost of preparing one operand split (hashing, lookups).
    seconds_per_split: float = 5e-7
    #: Cost of generating/indexing one admissible join result.
    seconds_per_result: float = 5e-7
    #: Master-side cost per plan during final pruning.
    master_seconds_per_plan: float = 1e-6

    def __post_init__(self) -> None:
        for name in (
            "task_setup_s",
            "seconds_per_plan",
            "seconds_per_split",
            "seconds_per_result",
            "master_seconds_per_plan",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


#: Model instance used when none is supplied.
DEFAULT_CLUSTER = ClusterModel()


def worker_compute_seconds(cluster: ClusterModel, stats: WorkerStats) -> float:
    """Simulated DP time of one worker from its operation counters."""
    return (
        stats.plans_considered * cluster.seconds_per_plan
        + stats.splits_considered * cluster.seconds_per_split
        + stats.admissible_results * cluster.seconds_per_result
    )


@dataclass
class SimulatedTiming:
    """Simulated wall-clock decomposition of one parallel optimization."""

    #: Master's serial task-dispatch time.
    dispatch_s: float
    #: Slowest worker's finish time measured from optimization start
    #: (dispatch offset + task setup + compute) — the paper's "W-Time" is
    #: :attr:`max_worker_compute_s`, the compute component alone.
    workers_done_s: float
    #: Master's serial result-collection time.
    collect_s: float
    #: Master's final pruning time.
    master_prune_s: float
    #: Total bytes sent over the network (both directions).
    network_bytes: int
    #: Number of network messages.
    network_messages: int
    #: Per-worker simulated compute seconds.
    worker_compute_s: list[float]

    @property
    def max_worker_compute_s(self) -> float:
        """Maximal per-worker optimization time ("W-Time" in Figures 2/5)."""
        return max(self.worker_compute_s, default=0.0)

    @property
    def total_s(self) -> float:
        """End-to-end simulated optimization time (the figures' "Time")."""
        return self.workers_done_s + self.collect_s + self.master_prune_s

    @property
    def total_ms(self) -> float:
        """Total simulated time in milliseconds (the paper's unit)."""
        return self.total_s * 1e3


def simulate_mpq_run(
    cluster: ClusterModel, query: Query, result: MasterResult
) -> SimulatedTiming:
    """Compose simulated timing for a completed MPQ run."""
    accountant = NetworkAccountant(model=cluster.network)
    per_task_bytes = task_bytes(query)

    # Phase 1: serial dispatch.  Worker i can start once tasks 0..i are sent.
    dispatch_offsets = []
    elapsed = 0.0
    for _ in result.partition_results:
        elapsed += accountant.send(per_task_bytes)
        dispatch_offsets.append(elapsed)
    dispatch_s = elapsed

    # Phase 2: workers run independently; no communication (the paper's key
    # property).  Finish time = dispatch offset + setup + compute.
    computes = [
        worker_compute_seconds(cluster, partition.stats)
        for partition in result.partition_results
    ]
    workers_done_s = max(
        (
            offset + cluster.task_setup_s + compute
            for offset, compute in zip(dispatch_offsets, computes)
        ),
        default=0.0,
    )

    # Phase 3: serial collection of one result message per worker.
    collect_s = accountant.send_many(
        [plans_bytes(partition.plans) for partition in result.partition_results]
    )

    # Phase 4: final pruning over all returned plans.
    n_returned = sum(len(partition.plans) for partition in result.partition_results)
    master_prune_s = n_returned * cluster.master_seconds_per_plan

    return SimulatedTiming(
        dispatch_s=dispatch_s,
        workers_done_s=workers_done_s,
        collect_s=collect_s,
        master_prune_s=master_prune_s,
        network_bytes=accountant.total_bytes,
        network_messages=accountant.n_messages,
        worker_compute_s=computes,
    )
