"""Analytic scaling predictions vs executed runs."""

from __future__ import annotations

import pytest

from repro.algorithms.mpq import optimize_mpq
from repro.bench.analytic import (
    AnalyticWorkerModel,
    bushy_splits_executed,
    measure_candidates_per_split,
    paper_scale_fig2,
    predict_point,
    predict_series,
)
from repro.cluster.simulator import DEFAULT_CLUSTER
from repro.config import OptimizerSettings, PlanSpace
from repro.core.worker import optimize_partition
from repro.query.generator import SteinbrunnGenerator


class TestCountersMatchExecution:
    @pytest.mark.parametrize("n,l", [(6, 0), (8, 2), (8, 4), (10, 3)])
    def test_linear_counters_exact(self, n, l):
        query = SteinbrunnGenerator(81).query(n)
        settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
        stats = optimize_partition(query, 0, 1 << l, settings).stats
        model = AnalyticWorkerModel(n, l, PlanSpace.LINEAR)
        assert model.splits_considered == stats.splits_considered
        assert model.admissible_results == stats.admissible_results

    @pytest.mark.parametrize("n,l", [(6, 0), (6, 2), (9, 1), (9, 3)])
    def test_bushy_counters_exact(self, n, l):
        query = SteinbrunnGenerator(82).query(n)
        settings = OptimizerSettings(plan_space=PlanSpace.BUSHY)
        stats = optimize_partition(query, 0, 1 << l, settings).stats
        assert bushy_splits_executed(n, l) == stats.splits_considered
        model = AnalyticWorkerModel(n, l, PlanSpace.BUSHY)
        assert model.admissible_results == stats.admissible_results


class TestPredictedPoints:
    def test_memory_matches_execution(self):
        query = SteinbrunnGenerator(83).query(8)
        settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
        report = optimize_mpq(query, 4, settings)
        predicted = predict_point(8, 4, PlanSpace.LINEAR)
        assert predicted.memory_relations == report.max_worker_memory_relations

    def test_network_matches_execution_star(self):
        """Star queries have n-1 predicates, matching the byte shortcut."""
        query = SteinbrunnGenerator(84).query(8)
        settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
        report = optimize_mpq(query, 8, settings)
        predicted = predict_point(8, 8, PlanSpace.LINEAR)
        assert predicted.network_bytes == report.network_bytes

    def test_simulated_time_close(self):
        """Predicted time within 20% of the executed simulation (the only
        approximation is candidates-per-split)."""
        query = SteinbrunnGenerator(85).query(10)
        settings = OptimizerSettings(plan_space=PlanSpace.LINEAR)
        for workers in (1, 4, 16):
            report = optimize_mpq(query, workers, settings, DEFAULT_CLUSTER)
            predicted = predict_point(10, workers, PlanSpace.LINEAR)
            assert predicted.time_ms == pytest.approx(
                report.simulated_time_ms, rel=0.2
            )

    def test_rejects_invalid_workers(self):
        with pytest.raises(ValueError):
            predict_point(8, 3, PlanSpace.LINEAR)
        with pytest.raises(ValueError):
            predict_point(8, 64, PlanSpace.LINEAR)


class TestPredictedSeries:
    def test_series_length(self):
        series = predict_series(8, PlanSpace.LINEAR, max_workers=128)
        assert [p.workers for p in series.points] == [1, 2, 4, 8, 16]

    def test_worker_time_shrinks_by_three_quarters(self):
        series = predict_series(20, PlanSpace.LINEAR, max_workers=128)
        for previous, current in zip(series.points, series.points[1:]):
            # Slightly better than 3/4: constraints also cut admissible
            # last-table choices, the paper's "second mechanism".
            ratio = current.worker_time_ms / previous.worker_time_ms
            assert 0.70 <= ratio <= 0.78

    def test_bushy_memory_shrinks_by_seven_eighths(self):
        series = predict_series(
            15, PlanSpace.BUSHY, max_workers=32,
            candidates_per_split=3.0,
        )
        for previous, current in zip(series.points, series.points[1:]):
            ratio = current.memory_relations / previous.memory_relations
            assert 0.86 <= ratio <= 0.89


@pytest.fixture(scope="module")
def paper_series():
    """The four predicted Figure 2 series at the paper's sizes, by label."""
    return {series.label: series for series in paper_scale_fig2()}


class TestPaperScale:
    def test_paper_series_shapes(self):
        series = paper_scale_fig2()
        labels = [s.label for s in series]
        assert labels == [
            "analytic linear 20",
            "analytic linear 24",
            "analytic bushy 15",
            "analytic bushy 18",
        ]
        # Linear 20 at one worker lands in the paper's 10^4-10^5 ms band.
        linear20 = series[0].points[0]
        assert 1e4 < linear20.time_ms < 1e5
        # And parallelization yields the paper's order-of-magnitude range of
        # speedups at 128 workers.
        at_128 = series[1].points[7]
        assert at_128.workers == 128
        speedup = series[1].points[0].time_ms / at_128.time_ms
        assert 5 < speedup < 12

    def test_linear24_single_worker_takes_minutes(self, paper_series):
        """Large queries take minutes on one node (Figure 2's 10^3-10^5 ms axis)."""
        assert paper_series["analytic linear 24"].points[0].time_ms > 6e4

    def test_linear24_speedup_at_128_workers(self, paper_series):
        """The paper reports a speed-up of 8.1 for 24 tables at 128 workers."""
        times = paper_series["analytic linear 24"].time_by_workers()
        assert 6.0 < times[1] / times[128] < 10.0

    def test_bushy18_worker_time_per_doubling(self, paper_series):
        """Bushy spaces scale slower: about 21/27 of the work per doubling."""
        points = paper_series["analytic bushy 18"].points
        for previous, current in zip(points, points[1:]):
            assert 0.74 < current.worker_time_ms / previous.worker_time_ms < 0.82

    @pytest.mark.parametrize(
        "label,factor", [("analytic linear 20", 0.75), ("analytic bushy 15", 0.875)]
    )
    def test_memory_per_doubling(self, paper_series, label, factor):
        points = paper_series[label].points
        for previous, current in zip(points, points[1:]):
            observed = current.memory_relations / previous.memory_relations
            assert observed == pytest.approx(factor, rel=0.02)
