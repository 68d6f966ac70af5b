"""Experiment scales: paper-sized workloads and scaled-down defaults.

Pure Python executes the DP roughly two orders of magnitude slower per
operation than the paper's Java implementation, so the default scales shrink
query sizes while preserving every qualitative property (who wins, scaling
factors per worker doubling, crossover positions).  The ``paper`` scale runs
the original sizes — expect minutes to hours.

Scale semantics:

* ``ci`` — seconds; tier-1 tests assert the paper's shapes at this scale.
* ``default`` — a few minutes; ``python -m repro.bench all`` runs it.
* ``paper`` — the paper's original query sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.network import NetworkModel
from repro.cluster.simulator import ClusterModel


@dataclass(frozen=True)
class ExperimentScale:
    """Query sizes and repetition counts for one experiment scale."""

    name: str
    #: Queries per data point (the paper uses 20).
    queries_per_point: int
    #: Figure 1 sizes: [(linear sizes), (bushy sizes)].
    fig1_linear: tuple[int, ...]
    fig1_bushy: tuple[int, ...]
    #: Figure 2 sizes.
    fig2_linear: tuple[int, ...]
    fig2_bushy: tuple[int, ...]
    #: Figure 3: SMA sizes and MPQ sizes.
    fig3_sma: tuple[int, ...]
    fig3_mpq: tuple[int, ...]
    #: Figure 4 sizes (multi-objective): linear and bushy.
    fig4_linear: tuple[int, ...]
    fig4_bushy: tuple[int, ...]
    #: Figure 5 sizes (multi-objective scaling, linear).
    fig5_linear: tuple[int, ...]
    #: Table 1 query sizes and simulated-time budgets (seconds).
    table1_tables: tuple[int, ...]
    table1_budgets_s: tuple[float, ...]
    #: Speedup-experiment sizes: (linear, bushy) query sizes.
    speedup_linear: tuple[int, ...]
    speedup_bushy: tuple[int, ...]
    #: Cap on the worker counts swept.
    max_workers: int = 128
    #: Worker cap for SMA sweeps (its cost explodes in worker count).
    max_sma_workers: int = 128
    #: Per-task setup overhead of the simulated cluster (seconds).  Scaled
    #: down together with the query sizes so that the compute-to-overhead
    #: ratio matches the paper's regime (their large queries run minutes
    #: against ~100 ms Spark task overheads).
    task_setup_s: float = 0.05
    #: Per-message network latency of the simulated cluster (seconds).
    latency_s: float = 5e-4

    def cluster(self) -> ClusterModel:
        """The simulated cluster matched to this scale's query sizes."""
        return ClusterModel(
            network=NetworkModel(latency_s=self.latency_s),
            task_setup_s=self.task_setup_s,
        )


SCALES: dict[str, ExperimentScale] = {
    "ci": ExperimentScale(
        name="ci",
        queries_per_point=2,
        fig1_linear=(6, 8),
        fig1_bushy=(6, 8),
        fig2_linear=(10, 12),
        fig2_bushy=(8, 9),
        fig3_sma=(6, 8),
        fig3_mpq=(8,),
        fig4_linear=(6, 8),
        fig4_bushy=(6,),
        fig5_linear=(8, 10),
        table1_tables=(6, 8, 10),
        table1_budgets_s=(0.004, 0.008, 0.03),
        speedup_linear=(10,),
        speedup_bushy=(8,),
        max_workers=32,
        max_sma_workers=16,
        task_setup_s=0.002,
        latency_s=5e-5,
    ),
    "default": ExperimentScale(
        name="default",
        queries_per_point=3,
        fig1_linear=(8, 12),
        fig1_bushy=(6, 9),
        fig2_linear=(12, 14),
        fig2_bushy=(9, 12),
        fig3_sma=(8, 10),
        fig3_mpq=(10, 12),
        fig4_linear=(8, 10),
        fig4_bushy=(6, 9),
        fig5_linear=(10, 12, 14),
        table1_tables=(8, 10, 12),
        table1_budgets_s=(0.01, 0.04, 0.2),
        speedup_linear=(12, 14),
        speedup_bushy=(9, 12),
        max_workers=128,
        max_sma_workers=64,
        task_setup_s=0.005,
        latency_s=1e-4,
    ),
    "paper": ExperimentScale(
        name="paper",
        queries_per_point=20,
        fig1_linear=(8, 16),
        fig1_bushy=(9, 15),
        fig2_linear=(20, 24),
        fig2_bushy=(15, 18),
        fig3_sma=(8, 12),
        fig3_mpq=(12,),
        fig4_linear=(10,),
        fig4_bushy=(9,),
        fig5_linear=(16, 18, 20),
        table1_tables=(14, 16, 18, 20),
        table1_budgets_s=(10.0, 30.0, 60.0),
        speedup_linear=(20, 24),
        speedup_bushy=(15, 18),
        max_workers=256,
        max_sma_workers=128,
    ),
}


#: α values of Table 1 (identical at every scale — the paper's grid).
TABLE1_ALPHAS: tuple[float, ...] = (1.01, 1.05, 1.25, 1.5, 2.0, 5.0, 10.0)


def worker_counts(limit: int, start: int = 1) -> list[int]:
    """Powers of two from ``start`` to ``limit`` inclusive."""
    counts = []
    workers = start
    while workers <= limit:
        counts.append(workers)
        workers *= 2
    return counts
