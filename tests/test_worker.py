"""Worker DP (paper Algorithm 2/5): stats, split generation, partitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerSettings, PlanSpace
from repro.core.constraints import max_constraints, partition_constraints
from repro.core.counting import (
    admissible_result_count_at_least_2,
    linear_split_count,
)
from repro.core.partitioning import admissible_join_results, is_admissible
from repro.core.worker import (
    _bushy_groups,
    bushy_operands,
    optimize_partition,
)
from repro.plans.plan import iter_join_result_masks
from repro.query.generator import SteinbrunnGenerator
from repro.testing import naive_bushy_operands
from repro.util.bitset import popcount


@pytest.fixture
def query8():
    return SteinbrunnGenerator(21).query(8)


@pytest.fixture
def query6():
    return SteinbrunnGenerator(22).query(6)


class TestWorkerStats:
    def test_admissible_count_matches_theory(self, query8, linear_settings):
        result = optimize_partition(query8, 3, 8, linear_settings)
        expected = admissible_result_count_at_least_2(8, 3, PlanSpace.LINEAR)
        assert result.stats.admissible_results == expected

    def test_split_count_matches_theory(self, query8, linear_settings):
        for partition_id in (0, 5):
            result = optimize_partition(query8, partition_id, 8, linear_settings)
            assert result.stats.splits_considered == linear_split_count(8, 3)

    def test_serial_table_entries(self, query6, linear_settings):
        result = optimize_partition(query6, 0, 1, linear_settings)
        # Every nonempty subset stores a plan when unconstrained.
        assert result.stats.table_entries == (1 << 6) - 1

    def test_plans_considered_at_least_splits(self, query6, linear_settings):
        result = optimize_partition(query6, 0, 1, linear_settings)
        assert result.stats.plans_considered >= result.stats.splits_considered

    def test_result_plans_single_objective(self, query6, linear_settings):
        result = optimize_partition(query6, 0, 2, linear_settings)
        assert result.stats.result_plans == len(result.plans) == 1

    def test_wall_time_recorded(self, query6, linear_settings):
        result = optimize_partition(query6, 0, 1, linear_settings)
        assert result.stats.wall_time_s > 0

    def test_partition_metadata(self, query6, linear_settings):
        result = optimize_partition(query6, 2, 4, linear_settings)
        assert result.stats.partition_id == 2
        assert result.stats.n_partitions == 4
        assert result.stats.n_constraints == 2


class TestPartitionPlansRespectConstraints:
    def test_linear_plan_join_results_admissible(self, query8, linear_settings):
        for partition_id in range(4):
            result = optimize_partition(query8, partition_id, 4, linear_settings)
            constraints = partition_constraints(8, partition_id, 4, PlanSpace.LINEAR)
            (plan,) = result.plans
            for mask in iter_join_result_masks(plan):
                assert is_admissible(mask, constraints)

    def test_bushy_plan_join_results_admissible(self, query6, bushy_settings):
        for partition_id in range(4):
            result = optimize_partition(query6, partition_id, 4, bushy_settings)
            constraints = partition_constraints(6, partition_id, 4, PlanSpace.BUSHY)
            (plan,) = result.plans
            for mask in iter_join_result_masks(plan):
                assert is_admissible(mask, constraints)

    def test_linear_partition_returns_left_deep(self, query8, linear_settings):
        result = optimize_partition(query8, 1, 4, linear_settings)
        assert result.plans[0].is_left_deep()

    def test_linear_join_order_respects_precedence(self, query8, linear_settings):
        for partition_id in range(8):
            result = optimize_partition(query8, partition_id, 8, linear_settings)
            order = result.plans[0].join_order()
            constraints = partition_constraints(8, partition_id, 8, PlanSpace.LINEAR)
            for constraint in constraints:
                assert order.index(constraint.before) < order.index(constraint.after)


class TestBushyOperands:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        data=st.data(),
    )
    def test_matches_naive_enumeration(self, n, data):
        limit = max_constraints(n, PlanSpace.BUSHY)
        l = data.draw(st.integers(min_value=0, max_value=limit))
        partition_id = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
        constraints = partition_constraints(n, partition_id, 1 << l, PlanSpace.BUSHY)
        groups = _bushy_groups(n, constraints)
        admissible = admissible_join_results(n, constraints, PlanSpace.BUSHY)
        masks = [m for m in admissible if popcount(m) >= 2]
        sample = data.draw(st.lists(st.sampled_from(masks), min_size=1, max_size=5))
        for mask in sample:
            fast = sorted(bushy_operands(mask, groups))
            naive = sorted(naive_bushy_operands(mask, constraints))
            assert fast == naive

    def test_operand_complements_admissible(self):
        n = 6
        constraints = partition_constraints(n, 1, 4, PlanSpace.BUSHY)
        groups = _bushy_groups(n, constraints)
        full = (1 << n) - 1
        for left in bushy_operands(full, groups):
            assert is_admissible(left, constraints) or popcount(left) == 1
            right = full ^ left
            assert is_admissible(right, constraints) or popcount(right) == 1

    def test_degenerate_operands_present(self):
        groups = _bushy_groups(6, ())
        operands = bushy_operands(0b111111, groups)
        assert 0 in operands
        assert 0b111111 in operands
        assert len(operands) == 64


class TestEquivalenceAcrossSplitStrategies:
    def test_bushy_same_optimum_with_any_partition(self, query6, bushy_settings):
        serial = optimize_partition(query6, 0, 1, bushy_settings)
        best_serial = min(p.cost[0] for p in serial.plans)
        per_partition_best = []
        for partition_id in range(4):
            result = optimize_partition(query6, partition_id, 4, bushy_settings)
            per_partition_best.append(min(p.cost[0] for p in result.plans))
        assert min(per_partition_best) == pytest.approx(best_serial)
