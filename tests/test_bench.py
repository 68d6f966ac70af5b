"""Experiment harness: scaling series, workloads, CLI plumbing."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    ScalingPoint,
    ScalingSeries,
    mpq_scaling,
    run_mpq_point,
    run_sma_point,
    sma_scaling,
)
from repro.bench.workloads import SCALES, TABLE1_ALPHAS, worker_counts
from repro.bench import experiments
from repro.bench.__main__ import main as bench_main
from repro.algorithms.mpq import optimize_mpq
from repro.config import MULTI_OBJECTIVE, OptimizerSettings, PlanSpace
from repro.core.constraints import max_partitions
from repro.core.counting import memory_reduction_factor, work_reduction_factor
from repro.query.generator import SteinbrunnGenerator


@pytest.fixture
def queries():
    return SteinbrunnGenerator(30).queries(2, 6)


@pytest.fixture
def settings():
    return OptimizerSettings()


def space_and_size(label):
    """Plan space and query size named by a series label such as
    ``MPQ MO bushy 6`` or ``MPQ 8 tables / chain`` (linear unless named)."""
    words = label.split()
    space = PlanSpace.BUSHY if "bushy" in words else PlanSpace.LINEAR
    return space, next(int(word) for word in words if word.isdigit())


class TestWorkerCounts:
    def test_powers_of_two(self):
        assert worker_counts(16) == [1, 2, 4, 8, 16]

    def test_non_power_limit(self):
        assert worker_counts(20) == [1, 2, 4, 8, 16]

    def test_custom_start(self):
        assert worker_counts(64, start=16) == [16, 32, 64]

    def test_empty_when_start_exceeds(self):
        assert worker_counts(4, start=8) == []


class TestScales:
    def test_registry_names(self):
        assert set(SCALES) == {"ci", "default", "paper"}
        for name, scale in SCALES.items():
            assert scale.name == name

    def test_paper_matches_paper_sizes(self):
        paper = SCALES["paper"]
        assert paper.fig2_linear == (20, 24)
        assert paper.fig2_bushy == (15, 18)
        assert paper.fig5_linear == (16, 18, 20)
        assert paper.table1_budgets_s == (10.0, 30.0, 60.0)
        assert paper.max_workers == 256

    def test_alphas_match_paper(self):
        assert TABLE1_ALPHAS == (1.01, 1.05, 1.25, 1.5, 2.0, 5.0, 10.0)

    def test_cluster_built_from_scale(self):
        cluster = SCALES["ci"].cluster()
        assert cluster.task_setup_s == SCALES["ci"].task_setup_s


class TestPoints:
    def test_mpq_point_fields(self, queries, settings):
        point = run_mpq_point(queries, 4, settings)
        assert point.workers == 4
        assert point.time_ms > 0
        assert point.worker_time_ms > 0
        assert point.memory_relations > 0
        assert point.network_bytes > 0

    def test_sma_point_fields(self, queries, settings):
        point = run_sma_point(queries, 4, settings)
        assert point.workers == 4
        assert point.time_ms > 0
        assert point.network_bytes > 0

    def test_point_row_formatting(self):
        point = ScalingPoint(8, 1.0, 0.5, 100, 2000)
        row = point.as_row()
        assert "8" in row and "2000" in row


class TestSeries:
    def test_mpq_series(self, queries, settings):
        series = mpq_scaling("test", queries, [1, 2, 4], settings)
        assert [p.workers for p in series.points] == [1, 2, 4]
        assert "test" in series.format()
        assert len(series.format().splitlines()) == 5

    def test_series_lookups(self, queries, settings):
        series = mpq_scaling("test", queries, [1, 2], settings)
        assert set(series.time_by_workers()) == {1, 2}
        assert set(series.network_by_workers()) == {1, 2}
        assert set(series.memory_by_workers()) == {1, 2}

    def test_sma_series(self, queries, settings):
        series = sma_scaling("sma", queries, [1, 2], settings)
        assert len(series.points) == 2

    def test_memory_monotone_decreasing(self, queries, settings):
        series = mpq_scaling("m", queries, [1, 2, 4, 8], settings)
        memories = [p.memory_relations for p in series.points]
        assert memories == sorted(memories, reverse=True)


class TestExperimentDrivers:
    """Smoke tests on a tiny injected scale (``TestPaperShapes`` runs ci)."""

    @pytest.fixture(autouse=True)
    def tiny_scale(self, monkeypatch):
        from repro.bench.workloads import ExperimentScale

        tiny = ExperimentScale(
            name="tiny",
            queries_per_point=1,
            fig1_linear=(4,),
            fig1_bushy=(4,),
            fig2_linear=(5,),
            fig2_bushy=(5,),
            fig3_sma=(4,),
            fig3_mpq=(4,),
            fig4_linear=(4,),
            fig4_bushy=(4,),
            fig5_linear=(5,),
            table1_tables=(4,),
            table1_budgets_s=(0.001, 1.0),
            speedup_linear=(5,),
            speedup_bushy=(5,),
            max_workers=4,
            max_sma_workers=4,
            task_setup_s=0.001,
            latency_s=1e-5,
        )
        monkeypatch.setitem(SCALES, "tiny", tiny)
        return tiny

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            experiments.fig1("nope")

    def test_fig1(self):
        result = experiments.fig1("tiny")
        assert "Figure 1" in result.format()
        labels = [s.label for s in result.series]
        assert any(label.startswith("MPQ") for label in labels)
        assert any(label.startswith("SMA") for label in labels)

    def test_fig2(self):
        result = experiments.fig2("tiny")
        assert [series.label for series in result.series] == [
            "MPQ linear 5",
            "MPQ bushy 5",
            "analytic linear 20",
            "analytic linear 24",
            "analytic bushy 15",
            "analytic bushy 18",
        ]

    def test_fig3(self):
        result = experiments.fig3("tiny")
        kinds = {label.split("/")[-1].strip() for label in
                 (s.label for s in result.series)}
        assert kinds == {"chain", "star", "cycle"}

    def test_fig4(self):
        result = experiments.fig4("tiny")
        assert "alpha=10" in result.title

    def test_fig5(self):
        result = experiments.fig5("tiny")
        assert len(result.series) == 1

    def test_table1(self):
        result = experiments.table1("tiny")
        text = result.format()
        assert "Table 1" in text
        # Every grid cell is present.
        assert len(result.entries) == 2 * 1 * len(TABLE1_ALPHAS)
        # The generous budget is reachable by one worker.
        assert result.entries[(1.0, 4, 10.0)] == 1

    def test_speedups(self):
        result = experiments.speedups("tiny")
        assert len(result.rows) == 3  # linear + bushy + multi-objective
        for row in result.rows:
            assert row.speedup > 0
        assert "speedup" in result.format()

    @pytest.mark.parametrize(
        "driver", ["fig1", "fig2", "fig3", "fig4", "fig5", "speedups", "table1"]
    )
    def test_no_mpq_row_exceeds_max_partitions(self, driver):
        """More workers than partitions would repeat a smaller run's row."""
        result = getattr(experiments, driver)("tiny")
        if driver == "speedups":
            rows = [(row.plan_space, row.n_tables, row.workers) for row in result.rows]
        elif driver == "table1":
            rows = [
                (PlanSpace.LINEAR, n_tables, workers)
                for (_, n_tables, _), workers in result.entries.items()
                if workers is not None
            ]
        else:
            rows = [
                (*space_and_size(series.label), point.workers)
                for series in result.series
                if not series.label.startswith("SMA")
                for point in series.points
            ]
        assert rows
        for space, n_tables, workers in rows:
            assert workers <= max_partitions(n_tables, space), (space, n_tables, workers)


class TestCLI:
    class _StubResult:
        def format(self):
            return "stub report"

    def test_cli_runs_one_experiment(self, capsys, monkeypatch):
        from repro.bench import __main__ as cli

        monkeypatch.setitem(
            cli._EXPERIMENTS, "fig2", lambda scale: self._StubResult()
        )
        assert bench_main(["fig2", "--scale", "ci"]) == 0
        captured = capsys.readouterr()
        assert "stub report" in captured.out
        assert "fig2 completed" in captured.out

    def test_cli_all_runs_everything(self, capsys, monkeypatch):
        from repro.bench import __main__ as cli

        for name in list(cli._EXPERIMENTS):
            monkeypatch.setitem(
                cli._EXPERIMENTS, name, lambda scale: self._StubResult()
            )
        assert bench_main(["all", "--scale", "ci"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("stub report") == 7

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            bench_main(["nope"])

    def test_cli_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            bench_main(["fig1", "--scale", "huge"])


@pytest.fixture(scope="module")
def ci_run():
    """Each driver run once at ``ci`` scale, shared by the shape tests."""
    runs = {}

    def run(driver):
        if driver not in runs:
            runs[driver] = getattr(experiments, driver)("ci")
        return runs[driver]

    return run


def measured(result):
    return [series for series in result.series if series.label.startswith("MPQ")]


def doublings(series):
    return zip(series.points, series.points[1:])


def workers_needed(result, budget, n_tables, alpha):
    """A Table 1 cell, with an infeasible cell (``None``) as infinity."""
    value = result.entries[(budget, n_tables, alpha)]
    return value if value is not None else float("inf")


class TestPaperShapes:
    """The qualitative claims of the paper's Figures 1-5 and Table 1, at ci scale."""

    @pytest.mark.parametrize("figure", ["fig1", "fig4"])
    def test_sma_sends_more_bytes_than_mpq(self, ci_run, figure):
        by_label = {series.label: series for series in ci_run(figure).series}
        for mpq in measured(ci_run(figure)):
            mpq_bytes = mpq.network_by_workers()
            sma_bytes = by_label[mpq.label.replace("MPQ", "SMA")].network_by_workers()
            shared = [workers for workers in mpq_bytes if workers >= 4 and workers in sma_bytes]
            assert shared, mpq.label
            for workers in shared:
                assert sma_bytes[workers] > mpq_bytes[workers], (mpq.label, workers)

    def test_fig2_memory_shrinks_by_the_theorem_factor(self, ci_run):
        for series in measured(ci_run("fig2")):
            factor = memory_reduction_factor(space_and_size(series.label)[0])
            for previous, current in doublings(series):
                observed = current.memory_relations / previous.memory_relations
                assert observed == pytest.approx(factor, rel=0.12), series.label

    def test_fig2_worker_time_shrinks_at_least_as_predicted(self, ci_run):
        for series in measured(ci_run("fig2")):
            factor = work_reduction_factor(space_and_size(series.label)[0])
            for previous, current in doublings(series):
                speed = current.worker_time_ms / previous.worker_time_ms
                assert speed < factor * 1.15, series.label

    def test_fig3_topology_changes_time_by_under_2x(self, ci_run):
        families: dict[str, list] = {}
        for series in ci_run("fig3").series:
            families.setdefault(series.label.split("/")[0].strip(), []).append(series)
        for prefix, family in families.items():
            for workers in family[0].time_by_workers():
                times = [series.time_by_workers()[workers] for series in family]
                assert max(times) / min(times) < 2.0, (prefix, workers, times)

    def test_fig5_worker_time_never_grows_with_workers(self, ci_run):
        for series in ci_run("fig5").series:
            worker_times = [point.worker_time_ms for point in series.points]
            assert worker_times == sorted(worker_times, reverse=True), series.label

    def test_fig5_network_never_shrinks_with_workers(self, ci_run):
        for series in ci_run("fig5").series:
            networks = [point.network_bytes for point in series.points]
            assert networks == sorted(networks), series.label

    @pytest.mark.slow
    def test_table1_coarser_alpha_never_needs_more_workers(self, ci_run):
        result = ci_run("table1")
        for n_tables in result.tables:
            for budget in result.budgets_s:
                needed = [
                    workers_needed(result, budget, n_tables, alpha)
                    for alpha in TABLE1_ALPHAS
                ]
                assert needed == sorted(needed, reverse=True), (budget, n_tables)

    @pytest.mark.slow
    def test_table1_larger_budget_never_needs_more_workers(self, ci_run):
        result = ci_run("table1")
        for n_tables in result.tables:
            for alpha in TABLE1_ALPHAS:
                needed = [
                    workers_needed(result, budget, n_tables, alpha)
                    for budget in result.budgets_s
                ]
                assert needed == sorted(needed, reverse=True), (n_tables, alpha)

    def test_plans_considered_fall_as_alpha_grows(self):
        """Coarser precision prunes more, so Table 1 needs fewer workers."""
        query = SteinbrunnGenerator(41).query(9)
        considered = []
        for alpha in (1.01, 2.0, 10.0):
            settings = OptimizerSettings(
                plan_space=PlanSpace.LINEAR, objectives=MULTI_OBJECTIVE, alpha=alpha
            )
            report = optimize_mpq(query, 1, settings)
            considered.append(report.result.partition_results[0].stats.plans_considered)
        assert considered[0] > considered[1] > considered[2]

