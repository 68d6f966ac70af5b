"""SMA — the fine-grained shared-memory-style baseline (paper Section 6.1).

The paper compares MPQ against "an algorithm representing the fine-grained
approaches to parallelizing query optimization proposed so far" [Han et al.
2008, 2009]: a central master assigns *individual table sets* to workers,
round by round over result cardinality, and partial plans (memotable
entries) must be visible to all workers.

On a shared-nothing architecture that design implies, per cardinality level:

1. the master sends each worker the list of table sets it must solve;
2. workers compute best plans for their sets — using the memotable built in
   earlier rounds, which they can only have if it was *shipped* to them;
3. workers return their new entries; the master broadcasts the merged delta
   to every worker for the next round.

This module emulates exactly that: the DP itself runs in-process (producing
the same optimal plans as serial DP — an invariant under test), while the
per-worker operation counts and the per-round message sizes drive the same
simulated cluster model MPQ uses.  The memotable broadcast makes traffic
O(2^n · m) bytes — the hundreds of megabytes the paper reports — and the
per-round barriers add 2·(n-1) communication rounds, versus MPQ's one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cluster.network import NetworkAccountant
from repro.cluster.serialization import (
    memo_entries_bytes,
    query_bytes,
    sma_task_bytes,
)
from repro.cluster.simulator import DEFAULT_CLUSTER, ClusterModel
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.partitioning import admissible_results_by_size
from repro.core.worker import WorkerStats, scan_table, solve_table_set, split_source
from repro.cost.costmodel import CostModel
from repro.cost.pruning import PlanTable, make_pruning
from repro.plans.plan import Plan
from repro.query.query import Query


@dataclass
class SMARoundStats:
    """Instrumentation of one cardinality level (one task round)."""

    size: int
    n_sets: int
    #: Costed join candidates, per worker.
    worker_plans_considered: list[int]
    #: New memotable plans produced this round (shipped to everyone).
    new_entries: int
    #: Bytes the round's task, collection and broadcast messages carried.
    round_bytes: int
    round_seconds: float


@dataclass
class SMAReport:
    """Result and accounting of one SMA run."""

    plans: list[Plan]
    n_workers: int
    rounds: list[SMARoundStats] = field(repr=False, default_factory=list)
    network_bytes: int = 0
    network_messages: int = 0
    simulated_seconds: float = 0.0
    #: Memotable size every worker must hold (entries) — SMA shares it all.
    memotable_entries: int = 0
    wall_time_s: float = 0.0

    @property
    def best(self) -> Plan:
        """Cheapest plan by the first metric."""
        if not self.plans:
            raise ValueError("optimization produced no plan")
        return min(self.plans, key=lambda plan: plan.cost[0])

    @property
    def simulated_time_ms(self) -> float:
        """Simulated end-to-end optimization time in milliseconds."""
        return self.simulated_seconds * 1e3


def optimize_sma(
    query: Query,
    n_workers: int,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    cluster: ClusterModel = DEFAULT_CLUSTER,
) -> SMAReport:
    """Optimize ``query`` with the fine-grained SMA baseline.

    Produces the same optimal plans as serial DP — workers run the worker's
    own DP step over the unconstrained :func:`~repro.core.worker.split_source`,
    so candidates arrive in serial DP's order — while the report's traffic
    and simulated time reflect the shared-memotable, multi-round
    coordination pattern described above.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    started = time.perf_counter()
    n = query.n_tables
    cost_model = CostModel(query, settings)
    pruning = make_pruning(settings, n_tables=n)
    accountant = NetworkAccountant(model=cluster.network)
    report = SMAReport(plans=[], n_workers=n_workers)

    table = scan_table(cost_model, pruning)
    splits_of = split_source(n, (), settings.plan_space)

    # Initial statistics distribution: the master sends the query (with
    # statistics) to every worker, as it does for MPQ.
    stats_bytes = query_bytes(query)
    elapsed = accountant.send_many([stats_bytes] * n_workers)

    stored_plans = sum(len(entry) for entry in table.values())
    for size, level in admissible_results_by_size(n, (), settings.plan_space).items():
        round_start_bytes = accountant.total_bytes
        # Round-robin assignment of table sets, in ascending mask order, to
        # workers (the paper's master hands out "specific pairs of join
        # operands" — we batch per level, which favours SMA).
        assignments: list[list[int]] = [[] for _ in range(n_workers)]
        for index, mask in enumerate(sorted(level)):
            assignments[index % n_workers].append(mask)

        # 1. Task dispatch: one message per worker naming its sets.
        round_seconds = accountant.send_many(
            [sma_task_bytes(len(sets)) for sets in assignments]
        )
        round_seconds += cluster.task_setup_s

        # 2. Workers solve their sets (emulated in-process, ops counted).
        worker_ops = []
        for worker, sets in enumerate(assignments):
            stats = WorkerStats(worker, n_workers, n_constraints=0)
            for mask in sets:
                solve_table_set(mask, splits_of(mask), table, cost_model, pruning, stats)
            worker_ops.append(stats.plans_considered)
        round_seconds += max(worker_ops, default=0) * cluster.seconds_per_plan

        # 3. Result collection + memotable broadcast for the next round.
        new_stored = sum(len(entry) for entry in table.values())
        new_entries = new_stored - stored_plans
        stored_plans = new_stored
        collect = accountant.send_many(
            [
                memo_entries_bytes(_entries_of(assignments[w], table))
                for w in range(n_workers)
            ]
        )
        broadcast = 0.0
        if size < n and n_workers > 1:
            broadcast = accountant.send_many(
                [memo_entries_bytes(new_entries)] * n_workers
            )
        round_seconds += collect + broadcast

        report.rounds.append(
            SMARoundStats(
                size=size,
                n_sets=len(level),
                worker_plans_considered=worker_ops,
                new_entries=new_entries,
                round_bytes=accountant.total_bytes - round_start_bytes,
                round_seconds=round_seconds,
            )
        )
        elapsed += round_seconds

    # Final answer travels to the master once more (already counted above as
    # the last collection); expose the plans.
    report.plans = list(table.get(query.all_tables_mask, []))
    report.network_bytes = accountant.total_bytes
    report.network_messages = accountant.n_messages
    report.simulated_seconds = elapsed
    report.memotable_entries = len(table)
    report.wall_time_s = time.perf_counter() - started
    return report


def _entries_of(masks: list[int], table: PlanTable) -> int:
    """Stored plans for the given table sets (a worker's round output)."""
    return sum(len(table.get(mask, ())) for mask in masks)
