"""Grand-tour integration tests: every optimizer flavour on one query.

These tests cross plan spaces, objectives, interesting orders, parametric
mode, and parallelism degrees, asserting the cross-cutting invariants:
serial/parallel agreement, determinism, and result-object consistency.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.mpq import optimize_mpq
from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.master import optimize_parallel
from repro.core.serial import optimize_serial
from repro.query.generator import SteinbrunnGenerator
from tests.test_executors import outcomes


@pytest.fixture(scope="module")
def query():
    return SteinbrunnGenerator(99).query(6)


def flavour_id(settings: OptimizerSettings) -> str:
    bits = [settings.plan_space.value]
    bits.append("x".join(o.value for o in settings.objectives))
    if settings.consider_orders:
        bits.append("orders")
    if settings.parametric:
        bits.append("parametric")
    if settings.alpha != 1.0:
        bits.append(f"a{settings.alpha:g}")
    return "-".join(bits)


FLAVOURS = [
    OptimizerSettings(),
    OptimizerSettings(plan_space=PlanSpace.BUSHY),
    OptimizerSettings(consider_orders=True),
    OptimizerSettings(plan_space=PlanSpace.BUSHY, consider_orders=True),
    OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=1.0),
    OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0),
    OptimizerSettings(
        plan_space=PlanSpace.BUSHY, objectives=MULTI_OBJECTIVE, alpha=1.0
    ),
    OptimizerSettings(
        objectives=MULTI_OBJECTIVE, alpha=1.0, consider_orders=True
    ),
    OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
    OptimizerSettings(
        plan_space=PlanSpace.BUSHY,
        objectives=PARAMETRIC_OBJECTIVES,
        parametric=True,
    ),
]


@pytest.mark.parametrize("settings", FLAVOURS, ids=flavour_id)
class TestEveryFlavour:
    def test_parallel_matches_serial_best(self, query, settings):
        serial = optimize_serial(query, settings)
        parallel = optimize_parallel(query, 4, settings)
        serial_best = min(plan.cost[0] for plan in serial.plans)
        parallel_best = min(plan.cost[0] for plan in parallel.plans)
        assert parallel_best == pytest.approx(serial_best)

    def test_deterministic(self, query, settings):
        first = optimize_parallel(query, 4, settings)
        second = optimize_parallel(query, 4, settings)
        assert [plan.cost for plan in first.plans] == [
            plan.cost for plan in second.plans
        ]

    def test_plans_cover_full_query(self, query, settings):
        result = optimize_parallel(query, 4, settings)
        for plan in result.plans:
            assert plan.mask == query.all_tables_mask

    def test_left_deep_when_linear(self, query, settings):
        result = optimize_parallel(query, 4, settings)
        if settings.plan_space is PlanSpace.LINEAR:
            assert all(plan.is_left_deep() for plan in result.plans)

    def test_cost_vector_lengths(self, query, settings):
        result = optimize_parallel(query, 4, settings)
        for plan in result.plans:
            assert len(plan.cost) == len(settings.objectives)

    def test_plans_pickle(self, query, settings):
        """Plans cross process boundaries in shared-nothing deployments."""
        result = optimize_parallel(query, 2, settings)
        clone = pickle.loads(pickle.dumps(result.plans))
        assert [plan.cost for plan in clone] == [
            plan.cost for plan in result.plans
        ]


@pytest.fixture(scope="module")
def pool():
    with PersistentProcessPoolExecutor(max_workers=2) as executor:
        yield executor


@pytest.mark.parametrize("settings", FLAVOURS, ids=flavour_id)
def test_warm_pool_matches_serial(query, settings, pool):
    """The real multiprocessing path, one warm pool for every flavour: plans,
    partition ids and every ``WorkerStats`` counter equal the serial
    executor's."""
    inline = optimize_parallel(query, 4, settings)
    pooled = optimize_parallel(query, 4, settings, executor=pool)
    assert pooled.plans == inline.plans
    assert outcomes(pooled.partition_results) == outcomes(inline.partition_results)


class TestReportConsistency:
    def test_simulated_components_consistent(self, query):
        report = optimize_mpq(query, 4)
        timing = report.simulated
        assert timing.total_s >= timing.workers_done_s
        assert timing.workers_done_s >= timing.dispatch_s
        assert timing.network_messages == 2 * report.n_partitions
        assert report.simulated_time_ms == pytest.approx(timing.total_s * 1e3)

    def test_result_plans_counted(self, query):
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=1.0)
        result = optimize_parallel(query, 4, settings)
        for partition in result.partition_results:
            assert partition.stats.result_plans == len(partition.plans)
