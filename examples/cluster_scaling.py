"""Scaling MPQ on the simulated shared-nothing cluster (mini Figure 2).

Sweeps the worker count for one query and prints the four series the paper
plots: total simulated time, max worker time, per-worker memory in stored
relations, and network traffic.  Worker time shrinks by ~3/4 per doubling
(linear plans), memory by exactly 3/4, and network grows linearly in the
worker count.

Run:  python examples/cluster_scaling.py
"""

from __future__ import annotations

from repro import ClusterModel, NetworkModel, OptimizerSettings, PlanSpace, make_star_query
from repro.algorithms.mpq import optimize_mpq
from repro.core.constraints import max_partitions


def main() -> None:
    query = make_star_query(12, seed=31)
    settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
    # A cluster with modest overheads, matched to this query size (the
    # paper's Spark cluster had ~100 ms task overhead against minute-long
    # optimizations).
    cluster = ClusterModel(
        network=NetworkModel(latency_s=1e-4), task_setup_s=0.005
    )

    limit = max_partitions(query.n_tables, settings.plan_space)
    print(f"{query.name}: up to {limit} partitions available")
    print(f"{'workers':>8} {'time_ms':>10} {'w_time_ms':>10} "
          f"{'memory_rel':>11} {'network_B':>10}")

    workers = 1
    previous = None
    while workers <= min(limit, 64):
        report = optimize_mpq(query, workers, settings, cluster)
        print(
            f"{report.n_partitions:>8d} {report.simulated_time_ms:>10.2f} "
            f"{report.max_worker_time_ms:>10.2f} "
            f"{report.max_worker_memory_relations:>11d} "
            f"{report.network_bytes:>10,d}"
        )
        if previous is not None:
            shrink = (
                report.max_worker_memory_relations
                / previous.max_worker_memory_relations
            )
            assert abs(shrink - 0.75) < 0.02, "memory must shrink by 3/4"
        previous = report
        workers *= 2

    print()
    print("Memory shrinks by exactly 3/4 per worker doubling (Theorem 2);")
    print("worker time tracks the same factor (Theorem 6); network bytes")
    print("grow linearly in the worker count (Theorem 1).")


if __name__ == "__main__":
    main()
