"""Edge cases and failure injection across the stack."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.algorithms.mpq import optimize_mpq
from repro.algorithms.sma import optimize_sma
from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    Backend,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.master import optimize_parallel
from repro.core.serial import best_plan, optimize_serial
from repro.core.worker import optimize_partition
from repro.plans.plan import ScanPlan
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.query.schema import Column, Table
from tests.conftest import legacy_and_fastdp, make_manual_query, search_outcome


class TestTinyQueries:
    def test_single_table(self):
        query = make_manual_query([42])
        result = optimize_serial(query, OptimizerSettings())
        (plan,) = result.plans
        assert isinstance(plan, ScanPlan)
        assert plan.rows == 42.0

    def test_single_table_parallel(self):
        query = make_manual_query([42])
        result = optimize_parallel(query, 8, OptimizerSettings())
        assert result.n_partitions == 1  # no pair to constrain
        assert isinstance(result.best, ScanPlan)

    def test_two_tables_linear(self):
        query = make_manual_query([10, 20], [(0, 1, 0.5)])
        result = optimize_parallel(query, 2, OptimizerSettings())
        serial = optimize_serial(query, OptimizerSettings())
        assert result.best.cost == best_plan(serial).cost
        assert result.n_partitions == 2

    def test_two_tables_bushy_cannot_partition(self):
        query = make_manual_query([10, 20], [(0, 1, 0.5)])
        settings = OptimizerSettings(plan_space=PlanSpace.BUSHY)
        result = optimize_parallel(query, 8, settings)
        assert result.n_partitions == 1

    def test_three_tables_bushy_two_partitions(self):
        query = make_manual_query([10, 20, 30], [(0, 1, 0.5), (1, 2, 0.5)])
        settings = OptimizerSettings(plan_space=PlanSpace.BUSHY)
        result = optimize_parallel(query, 2, settings)
        assert result.n_partitions == 2
        serial = optimize_serial(query, settings)
        assert result.best.cost[0] == best_plan(serial).cost[0]


class TestCrossProductOnlyQueries:
    def test_no_predicates_still_optimizes(self):
        query = make_manual_query([5, 7, 11])
        result = optimize_serial(query, OptimizerSettings())
        plan = best_plan(result)
        assert plan.rows == pytest.approx(5 * 7 * 11)

    def test_no_predicates_parallel_matches(self):
        query = make_manual_query([5, 7, 11, 13])
        serial = best_plan(optimize_serial(query, OptimizerSettings()))
        parallel = optimize_parallel(query, 4, OptimizerSettings())
        assert parallel.best.cost[0] == pytest.approx(serial.cost[0])

    def test_disconnected_graph(self):
        # Two joined pairs with no predicate between them.
        query = make_manual_query(
            [10, 20, 30, 40], [(0, 1, 0.1), (2, 3, 0.1)]
        )
        assert not query.is_connected()
        serial = best_plan(optimize_serial(query, OptimizerSettings()))
        parallel = optimize_parallel(query, 4, OptimizerSettings())
        assert parallel.best.cost[0] == pytest.approx(serial.cost[0])


def _overflowing_query(cardinality, hub):
    """Six tables of ``cardinality`` rows: a chain (``hub`` None) or a star
    around table ``hub``, selectivity 0.5 per predicate."""
    return make_manual_query(
        [cardinality] * 6,
        [(i - 1 if hub is None else hub, i, 0.5) for i in range(1, 6)],
    )


class TestExtremeStatistics:
    def test_zero_cardinality_table(self):
        query = Query(
            tables=(
                Table("empty", 0, (Column("c0", 10),)),
                Table("full", 100, (Column("c0", 10),)),
            ),
            predicates=(),
        )
        plan = best_plan(optimize_serial(query, OptimizerSettings()))
        # The one-row floor keeps costs positive and finite.
        assert plan.rows >= 1.0
        assert plan.cost[0] > 0

    def test_huge_cardinalities_no_overflow(self):
        query = make_manual_query([10**9, 10**9, 10**9])
        plan = best_plan(optimize_serial(query, OptimizerSettings()))
        assert plan.cost[0] < float("inf")

    @pytest.mark.parametrize("cardinality", [10**100, 10**155])
    @pytest.mark.parametrize("hub", [None, 0], ids=["chain", "star"])
    @pytest.mark.parametrize("plan_space", list(PlanSpace))
    def test_overflowing_costs_with_orders_match_legacy(
        self, cardinality, hub, plan_space
    ):
        """Costs overflow to ``inf`` from the second or third join on, and
        ``InterestingOrderPruning`` still *keeps* an ``inf``-cost candidate
        that opens an empty table set or a new order — a kernel deciding by
        ``candidate < inf``-style sentinels drops both."""
        query = _overflowing_query(cardinality, hub)
        settings = OptimizerSettings(plan_space=plan_space, consider_orders=True)
        overflowed = False
        for n_partitions in (1, 2):
            for partition_id in range(n_partitions):
                legacy, fast = legacy_and_fastdp(
                    query, settings, partition_id, n_partitions
                )
                assert search_outcome(legacy) == search_outcome(fast)
                overflowed |= any(
                    plan.cost[0] == float("inf") for plan in fast.plans
                )
        assert overflowed

    @pytest.mark.parametrize("cardinality", [10**100, 10**155])
    @pytest.mark.parametrize("hub", [None, 0], ids=["chain", "star"])
    @pytest.mark.parametrize("plan_space", list(PlanSpace))
    @pytest.mark.parametrize(
        "objectives", [PARAMETRIC_OBJECTIVES, PARAMETRIC_OBJECTIVES[::-1]],
        ids=["time-first", "io-first"],
    )
    def test_overflowing_parametric_costs_match_legacy(
        self, cardinality, hub, plan_space, objectives
    ):
        """The same overflow grid under envelope pruning: ``0·inf`` is NaN
        at a θ endpoint, and fastdp's inline dominance test and kept θ rows
        must decide as ``ParametricPruning`` does, in either objective
        order."""
        query = _overflowing_query(cardinality, hub)
        settings = OptimizerSettings(
            plan_space=plan_space, objectives=objectives, parametric=True
        )
        overflowed = False
        for n_partitions in (1, 2):
            for partition_id in range(n_partitions):
                legacy, fast = legacy_and_fastdp(
                    query, settings, partition_id, n_partitions
                )
                assert search_outcome(legacy) == search_outcome(fast)
                overflowed |= any(math.inf in plan.cost for plan in fast.plans)
        assert overflowed

    @pytest.mark.parametrize("cardinality", [10**100, 10**155])
    @pytest.mark.parametrize("hub", [None, 0], ids=["chain", "star"])
    @pytest.mark.parametrize("plan_space", list(PlanSpace))
    @pytest.mark.parametrize(
        "objectives", [MULTI_OBJECTIVE, MULTI_OBJECTIVE[::-1]],
        ids=["time-first", "buffer-first"],
    )
    def test_overflowing_multi_objective_costs_match_legacy_on_vecdp(
        self, cardinality, hub, plan_space, objectives
    ):
        """The same overflow grid on vecdp's frontier class: ``inf`` time
        costs must not change which candidates the batched weak-Pareto filter
        accepts, and the sort-merge candidates vecdp leaves out of its stream
        must stay the ones ``ParetoPruning`` would reject."""
        query = _overflowing_query(cardinality, hub)
        settings = OptimizerSettings(plan_space=plan_space, objectives=objectives)
        overflowed = False
        for n_partitions in (1, 2):
            for partition_id in range(n_partitions):
                legacy, vec = (
                    optimize_partition(
                        query, partition_id, n_partitions, settings.replace(backend=backend)
                    )
                    for backend in (Backend.LEGACY, Backend.VECDP)
                )
                assert vec.stats.backend_used == "vecdp"
                assert search_outcome(legacy) == search_outcome(vec)
                overflowed |= any(math.inf in plan.cost for plan in vec.plans)
        assert overflowed

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="vecdp and fastdp store nothing for a table set whose every "
        "candidate costs inf; the legacy core keeps the first one",
    )
    def test_plain_query_overflowing_everywhere_matches_legacy(self):
        """Every join of this 7-table chain at 10**100 rows a table overflows
        to ``inf``.  ``MinCostPruning`` keeps the first such candidate (127
        table entries, one ``(inf,)`` plan); the array and bitset cores keep
        none (97 entries, no plan), so under ``AUTO``
        ``optimize_mpq(query, 2).best`` raises "optimization produced no
        plan".  Known divergence, pinned until vecdp's ``+inf`` "no stored
        plan" marker is split from a stored ``inf`` cost."""
        chain = SteinbrunnGenerator(5).query(7, JoinGraphKind.CHAIN)
        query = Query(
            tables=tuple(
                dataclasses.replace(table, cardinality=10**100)
                for table in chain.tables
            ),
            predicates=chain.predicates,
        )
        legacy = optimize_partition(
            query, 0, 1, OptimizerSettings(backend=Backend.LEGACY)
        )
        auto = optimize_partition(query, 0, 1, OptimizerSettings())
        assert search_outcome(legacy) == search_outcome(auto)

    def test_selectivity_floor(self):
        query = make_manual_query([100, 100], [(0, 1, 1e-12)])
        plan = best_plan(optimize_serial(query, OptimizerSettings()))
        assert plan.rows == 1.0


class TestMismatchedWorkerCounts:
    @pytest.mark.parametrize("workers", [3, 5, 6, 7, 9, 100])
    def test_non_power_of_two_workers(self, workers):
        query = make_manual_query([10, 20, 30, 40, 50, 60])
        result = optimize_parallel(query, workers, OptimizerSettings())
        assert result.n_partitions & (result.n_partitions - 1) == 0
        serial = best_plan(optimize_serial(query, OptimizerSettings()))
        assert result.best.cost[0] == pytest.approx(serial.cost[0])


class TestFailureInjection:
    def test_executor_exception_propagates(self, star6, linear_settings):
        class ExplodingExecutor:
            def map_partitions(self, query, n_partitions, settings):
                raise RuntimeError("node crashed")

        with pytest.raises(RuntimeError, match="node crashed"):
            optimize_parallel(star6, 4, linear_settings, executor=ExplodingExecutor())

    def test_executor_partial_results_detected(self, star6, linear_settings):
        from repro.core.worker import optimize_partition as real

        class DroppingExecutor:
            def map_partitions(self, query, n_partitions, settings):
                return [real(query, 0, n_partitions, settings)]

        with pytest.raises(RuntimeError, match="results"):
            optimize_parallel(star6, 4, linear_settings, executor=DroppingExecutor())

    def test_partition_out_of_range_rejected(self, star6, linear_settings):
        with pytest.raises(ValueError):
            optimize_partition(star6, 4, 4, linear_settings)


class TestSettingsCombinations:
    @pytest.mark.parametrize("plan_space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    @pytest.mark.parametrize("orders", [False, True])
    def test_all_single_objective_combos(self, plan_space, orders):
        query = make_manual_query(
            [100, 200, 300, 400], [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1)]
        )
        settings = OptimizerSettings(plan_space=plan_space, consider_orders=orders)
        serial = best_plan(optimize_serial(query, settings))
        parallel = optimize_parallel(query, 2, settings)
        assert parallel.best.cost[0] == pytest.approx(serial.cost[0])

    def test_multi_objective_with_orders(self):
        query = make_manual_query(
            [100, 200, 300, 400], [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1)]
        )
        settings = OptimizerSettings(
            objectives=MULTI_OBJECTIVE, alpha=1.0, consider_orders=True
        )
        serial = optimize_serial(query, settings)
        parallel = optimize_parallel(query, 4, settings)
        serial_best = min(plan.cost[0] for plan in serial.plans)
        parallel_best = min(plan.cost[0] for plan in parallel.plans)
        assert parallel_best == pytest.approx(serial_best)

    def test_sma_on_tiny_query(self):
        query = make_manual_query([10, 20], [(0, 1, 0.5)])
        report = optimize_sma(query, 4, OptimizerSettings())
        assert report.best.mask == 0b11

    def test_mpq_report_on_single_table(self):
        query = make_manual_query([42])
        report = optimize_mpq(query, 4)
        assert report.n_partitions == 1
        assert report.network_bytes > 0
