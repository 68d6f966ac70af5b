"""One driver per table/figure of the paper's evaluation (Section 6).

Every function takes a scale name (``ci``/``default``/``paper``), runs the
corresponding experiment on Steinbrunn-generated queries, and returns a
result object whose ``format()`` prints the same rows/series the paper
reports.  ``python -m repro.bench <experiment> [--scale NAME]`` drives them
from the command line.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.algorithms.mpq import optimize_mpq
from repro.bench.analytic import paper_scale_fig2
from repro.bench.harness import ScalingSeries, mpq_scaling, sma_scaling
from repro.bench.workloads import SCALES, TABLE1_ALPHAS, ExperimentScale, worker_counts
from repro.cluster.simulator import ClusterModel, worker_compute_seconds
from repro.config import (
    MULTI_OBJECTIVE,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.constraints import max_partitions
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind


def _scale(name: str) -> ExperimentScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")


def _queries(n_tables: int, count: int, kind: JoinGraphKind = JoinGraphKind.STAR, seed: int = 7):
    return SteinbrunnGenerator(seed + n_tables).queries(count, n_tables, kind)


@dataclass
class FigureResult:
    """A figure's series plus context for the report."""

    figure: str
    title: str
    series: list[ScalingSeries] = field(default_factory=list)
    notes: str = ""

    def format(self) -> str:
        lines = [f"== {self.figure}: {self.title}"]
        if self.notes:
            lines.append(self.notes)
        for series in self.series:
            lines.append(series.format())
        return "\n".join(lines)


def _figure(
    scale_name: str, cluster: ClusterModel | None, figure: str, title: str, notes: str = ""
) -> tuple[ExperimentScale, ClusterModel, FigureResult]:
    """A figure's scale, its cluster (the scale's unless one is given) and an
    empty result."""
    scale = _scale(scale_name)
    cluster = cluster if cluster is not None else scale.cluster()
    notes = f"scale={scale.name}; medians over {scale.queries_per_point} queries{notes}"
    return scale, cluster, FigureResult(figure=figure, title=title, notes=notes)


def _mpq_vs_sma(
    result: FigureResult,
    scale: ExperimentScale,
    cluster: ClusterModel,
    sizes: tuple[tuple[int, ...], tuple[int, ...]],
    label: str,
    **objectives,
) -> FigureResult:
    """One MPQ and one SMA series per (linear, bushy) size: Figures 1 and 4."""
    linear, bushy = sizes
    configs = [(PlanSpace.LINEAR, n) for n in linear] + [(PlanSpace.BUSHY, n) for n in bushy]
    for plan_space, n_tables in configs:
        settings = OptimizerSettings(plan_space=plan_space, **objectives)
        queries = _queries(n_tables, scale.queries_per_point)
        counts = worker_counts(min(scale.max_workers, 128))
        mpq_counts = [w for w in counts if w <= max_partitions(n_tables, plan_space)]
        sma_counts = [w for w in counts if w <= scale.max_sma_workers]
        series = f"{label}{plan_space.value} {n_tables}"
        result.series.append(mpq_scaling(f"MPQ {series}", queries, mpq_counts, settings, cluster))
        result.series.append(sma_scaling(f"SMA {series}", queries, sma_counts, settings, cluster))
    return result


def fig1(scale_name: str = "default", cluster: ClusterModel | None = None) -> FigureResult:
    """Figure 1: MPQ vs SMA, single objective — time and network vs workers."""
    scale, cluster, result = _figure(
        scale_name, cluster, "Figure 1",
        "MPQ vs SMA (single objective): time and network vs workers",
    )
    return _mpq_vs_sma(result, scale, cluster, (scale.fig1_linear, scale.fig1_bushy), "")


def fig2(scale_name: str = "default", cluster: ClusterModel | None = None) -> FigureResult:
    """Figure 2: MPQ scaling, single objective — time/W-time/memory/network.

    The measured series are followed by the closed-form ``analytic`` series
    at the paper's own sizes (:func:`~repro.bench.analytic.paper_scale_fig2`),
    which pure-Python DP cannot execute.
    """
    scale, cluster, result = _figure(
        scale_name, cluster, "Figure 2", "MPQ scaling (single objective, larger search spaces)",
        "; analytic series: closed forms at the paper's sizes, default cluster",
    )
    configs = [(PlanSpace.LINEAR, n) for n in scale.fig2_linear] + [
        (PlanSpace.BUSHY, n) for n in scale.fig2_bushy
    ]
    for plan_space, n_tables in configs:
        settings = OptimizerSettings(plan_space=plan_space)
        queries = _queries(n_tables, scale.queries_per_point)
        limit = min(scale.max_workers, max_partitions(n_tables, plan_space), 128)
        counts = worker_counts(limit)
        result.series.append(
            mpq_scaling(
                f"MPQ {plan_space.value} {n_tables}", queries, counts, settings, cluster
            )
        )
    result.series.extend(paper_scale_fig2())
    return result


def fig3(scale_name: str = "default", cluster: ClusterModel | None = None) -> FigureResult:
    """Figure 3: join-graph structure has negligible impact on DP time."""
    scale, cluster, result = _figure(
        scale_name, cluster, "Figure 3",
        "Join graph structure (chain/star/cycle) vs optimization time",
    )
    kinds = (JoinGraphKind.CHAIN, JoinGraphKind.STAR, JoinGraphKind.CYCLE)
    settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
    sweep = [w for w in (2, 16, min(scale.max_workers, 128)) if w >= 2]
    for n_tables in scale.fig3_sma:
        for kind in kinds:
            queries = _queries(n_tables, scale.queries_per_point, kind)
            counts = [w for w in sweep if w <= scale.max_sma_workers]
            label = f"SMA {n_tables} tables / {kind.value}"
            result.series.append(sma_scaling(label, queries, counts, settings, cluster))
    for n_tables in scale.fig3_mpq:
        limit = max_partitions(n_tables, PlanSpace.LINEAR)
        counts = sorted({min(w, limit) for w in sweep})
        for kind in kinds:
            queries = _queries(n_tables, scale.queries_per_point, kind)
            label = f"MPQ {n_tables} tables / {kind.value}"
            result.series.append(mpq_scaling(label, queries, counts, settings, cluster))
    return result


def fig4(scale_name: str = "default", cluster: ClusterModel | None = None) -> FigureResult:
    """Figure 4: multi-objective MPQ vs SMA — time and network vs workers."""
    scale, cluster, result = _figure(
        scale_name, cluster, "Figure 4", "MPQ vs SMA (two cost metrics, alpha=10): time and network"
    )
    return _mpq_vs_sma(
        result, scale, cluster, (scale.fig4_linear, scale.fig4_bushy), "MO ",
        objectives=MULTI_OBJECTIVE, alpha=10.0,
    )


def fig5(scale_name: str = "default", cluster: ClusterModel | None = None) -> FigureResult:
    """Figure 5: multi-objective MPQ scaling (linear plan spaces)."""
    scale, cluster, result = _figure(
        scale_name, cluster, "Figure 5",
        "MPQ scaling with two cost metrics (alpha=10, linear plans)",
    )
    for n_tables in scale.fig5_linear:
        settings = OptimizerSettings(
            plan_space=PlanSpace.LINEAR, objectives=MULTI_OBJECTIVE, alpha=10.0
        )
        queries = _queries(n_tables, scale.queries_per_point)
        limit = min(scale.max_workers, max_partitions(n_tables, PlanSpace.LINEAR), 256)
        counts = worker_counts(limit)
        result.series.append(
            mpq_scaling(f"MPQ MO linear {n_tables}", queries, counts, settings, cluster)
        )
    return result


@dataclass
class Table1Result:
    """Minimal parallelism to reach precision α within a time budget."""

    budgets_s: tuple[float, ...]
    tables: tuple[int, ...]
    alphas: tuple[float, ...]
    #: (budget, n_tables, alpha) -> minimal workers, or None for infeasible.
    entries: dict[tuple[float, int, float], int | None] = field(default_factory=dict)
    notes: str = ""

    def format(self) -> str:
        header = f"{'budget_s':>9} {'tables':>7} " + " ".join(
            f"a={alpha:<5g}" for alpha in self.alphas
        )
        lines = [
            "== Table 1: minimal parallelism for precision alpha within a budget",
            self.notes,
            header,
        ]
        for budget in self.budgets_s:
            for n_tables in self.tables:
                cells = []
                for alpha in self.alphas:
                    value = self.entries.get((budget, n_tables, alpha))
                    cells.append(f"{value if value is not None else 'inf':>7}")
                lines.append(f"{budget:>9g} {n_tables:>7d} " + " ".join(cells))
        return "\n".join(lines)


def table1(scale_name: str = "default", cluster: ClusterModel | None = None) -> Table1Result:
    """Table 1: for each (budget, size, α) the minimal worker count.

    For every query size and α we sweep the worker counts once, recording
    median simulated optimization time; each budget then reads its minimal
    sufficient worker count off the same sweep (∞ when even the maximum
    tried fails) — exactly how the paper's table is assembled.
    """
    scale = _scale(scale_name)
    cluster = cluster if cluster is not None else scale.cluster()
    result = Table1Result(
        budgets_s=scale.table1_budgets_s,
        tables=scale.table1_tables,
        alphas=TABLE1_ALPHAS,
        notes=(
            f"scale={scale.name}; linear plans, two metrics; medians over "
            f"{scale.queries_per_point} queries; workers up to {scale.max_workers}"
        ),
    )
    for n_tables in scale.table1_tables:
        queries = _queries(n_tables, scale.queries_per_point)
        limit = min(scale.max_workers, max_partitions(n_tables, PlanSpace.LINEAR))
        counts = worker_counts(limit)
        for alpha in TABLE1_ALPHAS:
            settings = OptimizerSettings(
                plan_space=PlanSpace.LINEAR, objectives=MULTI_OBJECTIVE, alpha=alpha
            )
            median_times: dict[int, float] = {}
            for workers in counts:
                times = [
                    optimize_mpq(query, workers, settings, cluster).simulated.total_s
                    for query in queries
                ]
                median_times[workers] = statistics.median(times)
            for budget in scale.table1_budgets_s:
                minimal: int | None = None
                for workers in counts:
                    if median_times[workers] <= budget:
                        minimal = workers
                        break
                result.entries[(budget, n_tables, alpha)] = minimal
    return result


@dataclass
class SpeedupRow:
    """One speedup measurement (paper Section 6.2 text)."""

    plan_space: PlanSpace
    objectives: str
    n_tables: int
    workers: int
    serial_compute_s: float
    parallel_total_s: float

    @property
    def speedup(self) -> float:
        """Serial worker-only time over parallel time including overheads."""
        return self.serial_compute_s / self.parallel_total_s


@dataclass
class SpeedupResult:
    """Speedups of MPQ at the maximal supported parallelism."""

    rows: list[SpeedupRow] = field(default_factory=list)
    notes: str = ""

    def format(self) -> str:
        lines = [
            "== Speedups vs serial DP (paper Section 6.2 text)",
            self.notes,
            f"{'space':>7} {'obj':>6} {'tables':>7} {'workers':>8} "
            f"{'serial_s':>10} {'parallel_s':>11} {'speedup':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.plan_space.value:>7} {row.objectives:>6} {row.n_tables:>7d} "
                f"{row.workers:>8d} {row.serial_compute_s:>10.3f} "
                f"{row.parallel_total_s:>11.3f} {row.speedup:>8.2f}"
            )
        return "\n".join(lines)


def speedups(scale_name: str = "default", cluster: ClusterModel | None = None) -> SpeedupResult:
    """Speedup of MPQ at maximal parallelism over serial optimization.

    Follows the paper's definition: the baseline is the single-worker run
    *without* master computation and communication overheads; the parallel
    time *includes* them.
    """
    scale = _scale(scale_name)
    cluster = cluster if cluster is not None else scale.cluster()
    result = SpeedupResult(
        notes=f"scale={scale.name}; medians over {scale.queries_per_point} queries"
    )
    single = [
        (PlanSpace.LINEAR, n, OptimizerSettings(plan_space=PlanSpace.LINEAR))
        for n in scale.speedup_linear
    ] + [
        (PlanSpace.BUSHY, n, OptimizerSettings(plan_space=PlanSpace.BUSHY))
        for n in scale.speedup_bushy
    ]
    multi = [
        (
            PlanSpace.LINEAR,
            n,
            OptimizerSettings(
                plan_space=PlanSpace.LINEAR, objectives=MULTI_OBJECTIVE, alpha=10.0
            ),
        )
        for n in scale.fig5_linear
    ]
    for plan_space, n_tables, settings in single + multi:
        queries = _queries(n_tables, scale.queries_per_point)
        workers = min(scale.max_workers, max_partitions(n_tables, plan_space))
        serial_times, parallel_times = [], []
        for query in queries:
            serial_report = optimize_mpq(query, 1, settings, cluster)
            serial_times.append(
                worker_compute_seconds(
                    cluster, serial_report.result.partition_results[0].stats
                )
            )
            parallel_report = optimize_mpq(query, workers, settings, cluster)
            parallel_times.append(parallel_report.simulated.total_s)
        result.rows.append(
            SpeedupRow(
                plan_space=plan_space,
                objectives="multi" if settings.is_multi_objective else "single",
                n_tables=n_tables,
                workers=workers,
                serial_compute_s=statistics.median(serial_times),
                parallel_total_s=statistics.median(parallel_times),
            )
        )
    return result
