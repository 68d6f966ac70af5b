"""The DP pass: each case optimized serially, then with MPQ on a process pool.

``mpq_fanout`` runs this over its cases every round — it *is* that workload.
The three serving workloads run it once per run over the small *miss probe*
cases, because the driver requires every end-to-end metric from every run
(SPEC.md, "Driver contract"): there ``plan_ms.*`` read "what a cold miss of
this class costs" and ``mpq_speedup`` what fanning such a miss out to a pool
would buy.
"""

from __future__ import annotations

import math
import pickle
import statistics
import time
from dataclasses import dataclass, field

from repro.algorithms.mpq import MPQReport, optimize_mpq
from repro.bench.traffic import latency_percentiles
from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.cluster.simulator import DEFAULT_CLUSTER
from repro.core.constraints import partition_constraints
from repro.core.serial import optimize_serial
from repro.core.worker import PartitionResult
from repro.cost.pruning import final_prune, make_pruning
from repro.query.generator import SteinbrunnGenerator

from measure import Block, ProcessTree, Timer, available_cpus, collector_paused
from oracle import REL_TOL, legacy_frontier
from schedules import CLASS_SETTINGS, Case, oracle_cases
from tracer import Tracer


def frontier(plans: list) -> list[tuple]:
    """A result's cost vectors in a canonical order."""
    return sorted(tuple(plan.cost) for plan in plans)


def same_frontier(left: list[tuple], right: list[tuple]) -> bool:
    """Equal frontiers up to float re-association (1e-9 relative).

    Single-objective frontiers agree bit for bit; a parametric envelope can
    hold two plans tied to ~5e-10 of which a partition keeps the other one.
    """
    return len(left) == len(right) and all(
        len(a) == len(b)
        and all(math.isclose(x, y, rel_tol=REL_TOL) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


def serial_frontier(case: Case, serial: PartitionResult) -> list[tuple]:
    """The serial run's frontier after the master's final prune.

    A one-partition worker returns one plan per interesting order; MPQ's
    master prunes those to the frontier, so the serial side gets the same
    ``FinalPrune`` before the two are compared.
    """
    pruning = make_pruning(case.settings, n_tables=case.query.n_tables)
    return frontier(final_prune(pruning, [serial.plans]))


@dataclass
class CaseRun:
    """One case of one pass: the serial run, then MPQ on the pool."""

    case: Case
    serial: PartitionResult
    serial_block: Block
    pooled: MPQReport
    pooled_block: Block


@dataclass
class KernelRound:
    """Everything one DP pass measured."""

    runs: list[CaseRun] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def by_kernel(self) -> dict[str, list[CaseRun]]:
        grouped: dict[str, list[CaseRun]] = {}
        for run in self.runs:
            grouped.setdefault(run.case.kernel, []).append(run)
        return grouped

    def metrics(self) -> dict[str, float]:
        """``plan_ms.*`` (normalised, raw twins beside) and ``mpq_speedup``.

        The speed-up is a ratio of two raw walls taken back to back —
        in-process serial ÷ MPQ on the pool at the pass's worker count — so
        the machine's speed cancels without any calibration.
        """
        out: dict[str, float] = {}
        for kernel, runs in self.by_kernel().items():
            blocks = [run.serial_block for run in runs]
            out[f"plan_ms.{kernel}"] = (
                sum(b.wall_s * b.scale for b in blocks) / len(blocks) * 1e3
            )
            out[f"raw.plan_ms.{kernel}"] = sum(b.wall_s for b in blocks) / len(blocks) * 1e3
        out["mpq_speedup"] = statistics.geometric_mean(
            [run.serial_block.wall_s / run.pooled_block.wall_s for run in self.runs]
        )
        return out

    def request_metrics(self) -> dict[str, float]:
        """End-to-end numbers with one pooled MPQ optimization as the request:
        optimizations ÷ time spent in them, wall per optimization, and the
        CPU of the master *and the pool's workers* during them."""
        blocks = [run.pooled_block for run in self.runs]
        walls_ms = [block.wall_s * block.scale * 1e3 for block in blocks]
        raw_walls_ms = [block.wall_s * 1e3 for block in blocks]
        latency = latency_percentiles(walls_ms, (50, 95, 99))
        raw_latency = latency_percentiles(raw_walls_ms, (50, 95))
        return {
            "throughput_rps": len(blocks) / sum(walls_ms) * 1e3,
            "latency_p50_ms": latency["p50"],
            "latency_p95_ms": latency["p95"],
            "latency_p99_ms": latency["p99"],
            "cpu_ms_per_request": sum(b.cpu_s * b.scale for b in blocks)
            / len(blocks) * 1e3,
            "raw.throughput_rps": len(blocks) / sum(raw_walls_ms) * 1e3,
            "raw.latency_p50_ms": raw_latency["p50"],
            "raw.latency_p95_ms": raw_latency["p95"],
            "raw.cpu_ms_per_request": sum(b.cpu_s for b in blocks) / len(blocks) * 1e3,
            "raw.wall_s": sum(
                run.serial_block.wall_s + run.pooled_block.wall_s for run in self.runs
            ),
            "calibration_ms": statistics.median(
                b.calibration_s for b in blocks
            ) * 1e3,
            "requests": len(blocks),
            "samples_beyond_p95": len(blocks) - math.ceil(len(blocks) * 0.95),
        }


def kernel_pass(
    cases: list[Case],
    n_workers: int,
    timer: Timer,
    pool: PersistentProcessPoolExecutor,
    tracer: Tracer | None = None,
) -> KernelRound:
    """Optimize every case serially and with MPQ on ``pool``; check every answer.

    Checks (outside the timed calls): ``AUTO`` resolved to the backend the
    class expects, and the MPQ frontier equals the serial one.
    """
    round_ = KernelRound()
    for index, case in enumerate(cases):
        root = tracer.begin("request", request=index) if tracer else -1
        serial_start = time.perf_counter_ns()
        serial, serial_block = timer.call(optimize_serial, case.query, case.settings)
        pooled_start = time.perf_counter_ns()
        pooled, pooled_block = timer.call(
            optimize_mpq, case.query, n_workers, case.settings, DEFAULT_CLUSTER, pool
        )
        if tracer:
            # The timer's clock brackets each call alone; the calibration that
            # follows a call stays in the root span's self time.
            tracer.add(
                "core.serial.optimize_serial",
                serial_start,
                serial_start + int(serial_block.wall_s * 1e9),
                root,
                index,
            )
            _mpq_spans(tracer, root, index, pooled_start, pooled, pooled_block)
            tracer.end(root)
        round_.runs.append(CaseRun(case, serial, serial_block, pooled, pooled_block))
        name = case.query.name
        if serial.stats.backend_used != case.expected_backend:
            round_.failures.append(
                f"{name}: AUTO resolved to {serial.stats.backend_used!r}, "
                f"expected {case.expected_backend!r}"
            )
        if not same_frontier(frontier(pooled.plans), serial_frontier(case, serial)):
            round_.failures.append(f"{name}: MPQ frontier differs from serial")
    return round_


def _mpq_spans(
    tracer: Tracer, root: int, request: int, start: int, report: MPQReport, block: Block
) -> None:
    """The MPQ span with the durations MPQ itself reports laid under it.

    Only durations are known (partition walls, prune wall), not when each
    started, so the children are placed back to back from the span's start:
    the slowest partition, then the final prune.  What is left is the
    span's self time — the dispatch overhead.
    """
    span = tracer.add(
        "algorithms.mpq.optimize_mpq", start, start + int(block.wall_s * 1e9), root, request
    )
    slowest = int(report.result.max_worker_wall_s * 1e9)
    prune = int(report.result.master_prune_s * 1e9)
    tracer.add("core.worker.optimize_partition[slowest]", start, start + slowest, span, request)
    tracer.add(
        "core.master.final_prune", start + slowest, start + slowest + prune, span, request
    )


def miss_probe(cases: list[Case], tree: ProcessTree, rounds: int) -> list[KernelRound]:
    """The serving workloads' DP rounds, on a pool of their own.

    Run once per run, after the serving rounds and after peak memory is
    read, so the pool's workers are in neither.
    """
    nproc = available_cpus()
    pool, _ = spawn_pool(nproc)
    try:
        tree.refresh()
        timer = Timer(tree)
        with collector_paused():
            return [kernel_pass(cases, nproc, timer, pool) for _ in range(rounds)]
    finally:
        pool.close()
        tree.refresh()


def check_against_legacy() -> list[str]:
    """Each class's small oracle case: ``AUTO`` frontier equals legacy's."""
    failures = []
    for case in oracle_cases():
        timed = optimize_serial(case.query, case.settings)
        if not same_frontier(
            frontier(timed.plans), sorted(legacy_frontier(case.query, case.settings))
        ):
            failures.append(f"{case.query.name}: frontier differs from legacy")
    return failures


# ------------------------------------------------------------ per-layer numbers


def partition_layers(round_: KernelRound, label: str) -> dict[str, float]:
    """Skew and total-work ratio of one MPQ pass (``label`` = ``p2``/``p8``)."""
    skews = []
    partition_splits = 0
    serial_splits = 0
    for run in round_.runs:
        partitions = run.pooled.result.partition_results
        walls = [p.stats.wall_time_s for p in partitions]
        skews.append(max(walls) / (sum(walls) / len(walls)))
        partition_splits += sum(p.stats.splits_considered for p in partitions)
        serial_splits += run.serial.stats.splits_considered
    return {
        f"core.worker.partition_skew.{label}": statistics.mean(skews),
        f"core.worker.total_work_ratio.{label}": partition_splits / serial_splits,
    }


def kernel_layers(round_: KernelRound) -> dict[str, float]:
    """Per-layer metrics of the DP pass at ``p = nproc`` (traced run)."""
    out: dict[str, float] = {}
    for kernel, runs in round_.by_kernel().items():
        stats = [run.serial.stats for run in runs]
        considered = sum(s.plans_considered for s in stats)
        out[f"core.worker.splits_considered.{kernel}"] = sum(
            s.splits_considered for s in stats
        )
        out[f"core.worker.plans_considered.{kernel}"] = considered
        out[f"core.worker.plans_kept.{kernel}"] = sum(s.plans_kept for s in stats)
        out[f"core.worker.table_entries.{kernel}"] = sum(s.table_entries for s in stats)
        wall = sum(r.serial_block.wall_s * r.serial_block.scale for r in runs)
        out[f"core.worker.ns_per_plan_considered.{kernel}"] = wall / considered * 1e9
    results = [run.pooled.result for run in round_.runs]
    out["core.worker.max_partition_ms"] = statistics.mean(
        r.max_worker_wall_s for r in results
    ) * 1e3
    out["core.worker.max_partition_table_entries"] = max(
        r.max_worker_table_entries for r in results
    )
    out["core.master.final_prune_ms"] = statistics.mean(
        r.master_prune_s for r in results
    ) * 1e3
    out["cluster.executors.dispatch_overhead_ms"] = statistics.mean(
        r.total_wall_s - r.max_worker_wall_s - r.master_prune_s for r in results
    ) * 1e3
    out["cluster.simulator.network_bytes"] = statistics.mean(
        run.pooled.network_bytes for run in round_.runs
    )
    out["cluster.serialization.task_pickle_bytes"] = statistics.mean(
        len(pickle.dumps((run.case.query, 0, run.pooled.n_partitions, run.case.settings)))
        for run in round_.runs
    )
    out["cluster.serialization.result_pickle_bytes"] = statistics.mean(
        len(pickle.dumps(run.pooled.result.partition_results[0]))
        for run in round_.runs
    )
    constraint_us = []
    for run in round_.runs:
        n_tables = run.case.query.n_tables
        partitions = run.pooled.n_partitions
        space = run.case.settings.plan_space
        started = time.perf_counter()
        for partition in range(partitions):
            partition_constraints(n_tables, partition, partitions, space)
        constraint_us.append((time.perf_counter() - started) / partitions * 1e6)
    out["core.partitioning.constraints_us"] = statistics.median(constraint_us)
    out.update(partition_layers(round_, "p2"))
    return out


def spawn_pool(n_workers: int) -> tuple[PersistentProcessPoolExecutor, float]:
    """A persistent pool with every worker started; returns it and the time."""
    started = time.perf_counter()
    pool = PersistentProcessPoolExecutor(n_workers)
    warm = SteinbrunnGenerator(0).query(4)
    pool.map_partitions(warm, n_workers, CLASS_SETTINGS["plain_linear"][0])
    return pool, time.perf_counter() - started


def small_fanout_ms(pool: PersistentProcessPoolExecutor, repeats: int = 9) -> float:
    """An 8-table query at 8 partitions: dispatch-dominated (median of runs)."""
    query = SteinbrunnGenerator(8).query(8)
    settings = CLASS_SETTINGS["plain_linear"][0]
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        optimize_mpq(query, 8, settings, executor=pool)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls) * 1e3
