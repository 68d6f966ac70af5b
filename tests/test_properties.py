"""Property-based umbrella tests over the whole optimizer stack."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import MULTI_OBJECTIVE, OptimizerSettings, PlanSpace
from repro.core.master import optimize_parallel
from repro.core.serial import best_plan, optimize_serial
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.costmodel import CostModel
from repro.plans.plan import JoinPlan
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from tests.conftest import iter_join_result_masks

KINDS = [
    JoinGraphKind.STAR,
    JoinGraphKind.CHAIN,
    JoinGraphKind.CYCLE,
    JoinGraphKind.CLIQUE,
]

query_params = st.tuples(
    st.integers(min_value=4, max_value=7),  # tables
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from(KINDS),
)

relaxed = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@relaxed
@given(query_params, st.sampled_from([2, 4, 8]))
def test_mpq_equals_serial_linear(params, workers):
    """The headline invariant over random queries: MPQ == serial DP."""
    n, seed, kind = params
    query = SteinbrunnGenerator(seed).query(n, kind)
    cfg = OptimizerSettings(plan_space=PlanSpace.LINEAR)
    serial_cost = best_plan(optimize_serial(query, cfg)).cost[0]
    parallel = optimize_parallel(query, workers, cfg)
    assert parallel.best.cost[0] == pytest.approx(serial_cost)


@relaxed
@given(query_params, st.sampled_from([2, 4]))
def test_mpq_equals_serial_bushy(params, workers):
    n, seed, kind = params
    query = SteinbrunnGenerator(seed).query(n, kind)
    cfg = OptimizerSettings(plan_space=PlanSpace.BUSHY)
    serial_cost = best_plan(optimize_serial(query, cfg)).cost[0]
    parallel = optimize_parallel(query, workers, cfg)
    assert parallel.best.cost[0] == pytest.approx(serial_cost)


@relaxed
@given(query_params)
def test_plan_tree_internally_consistent(params):
    """Every join node's mask/rows/cost agree with its children."""
    n, seed, kind = params
    query = SteinbrunnGenerator(seed).query(n, kind)
    cfg = OptimizerSettings()
    plan = best_plan(optimize_serial(query, cfg))
    estimator = CardinalityEstimator(query)

    def check(node):
        if isinstance(node, JoinPlan):
            assert node.mask == node.left.mask | node.right.mask
            assert node.left.mask & node.right.mask == 0
            assert node.rows == pytest.approx(estimator.rows(node.mask))
            assert node.cost[0] >= node.left.cost[0] + node.right.cost[0]
            check(node.left)
            check(node.right)

    check(plan)
    assert plan.mask == query.all_tables_mask


@relaxed
@given(query_params)
def test_join_results_strictly_grow_leftdeep(params):
    """A left-deep plan's intermediate results form a strict chain."""
    n, seed, kind = params
    query = SteinbrunnGenerator(seed).query(n, kind)
    plan = best_plan(optimize_serial(query, OptimizerSettings()))
    masks = iter_join_result_masks(plan)
    for smaller, larger in zip(masks, masks[1:]):
        assert smaller & larger == smaller
        assert larger.bit_count() == smaller.bit_count() + 1


@relaxed
@given(query_params)
def test_multiobjective_contains_single_objective_optimum(params):
    """The exact Pareto frontier contains a plan matching the time optimum."""
    n, seed, kind = params
    query = SteinbrunnGenerator(seed).query(n, kind)
    single = best_plan(optimize_serial(query, OptimizerSettings()))
    multi = optimize_serial(
        query, OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=1.0)
    )
    frontier_times = [plan.cost[0] for plan in multi.plans]
    assert min(frontier_times) == pytest.approx(single.cost[0])


@relaxed
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_cardinality_symmetric_composition(n, seed):
    """rows(A | B) is independent of how the union is split."""
    query = SteinbrunnGenerator(seed).query(n)
    estimator = CardinalityEstimator(query)
    full = query.all_tables_mask
    for left in range(1, full):
        right = full ^ left
        if right == 0:
            continue
        left_rows, right_rows = estimator.rows(left), estimator.rows(right)
        if left_rows <= 1.0 or right_rows <= 1.0:
            continue  # the one-row floor breaks exact factorization
        via_product = left_rows * right_rows * estimator.join_selectivity(left, right)
        assert estimator.rows(full) == pytest.approx(max(via_product, 1.0), rel=1e-6)
