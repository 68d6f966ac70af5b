"""Worker DP (paper Algorithm 2/5): stats, split generation, partitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Backend, OptimizerSettings, PlanSpace
from repro.core.constraints import max_constraints, partition_constraints
from repro.core.counting import (
    admissible_result_count_at_least_2,
    bushy_assignment_count,
    linear_split_count,
)
from repro.core.partitioning import (
    admissible_join_results,
    admissible_results_by_size,
    is_admissible,
)
from repro.core.worker import (
    WorkerStats,
    _bushy_groups,
    bushy_operands,
    optimize_partition,
    scan_table,
    solve_table_set,
    split_source,
)
from repro.cost.costmodel import CostModel
from repro.cost.pruning import make_pruning
from repro.query.generator import SteinbrunnGenerator
from repro.testing import naive_bushy_operands
from repro.util.bitset import iter_subsets, popcount
from tests.conftest import iter_join_result_masks, make_manual_query, search_outcome


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


def _partition(n, space, data):
    """A drawn partition's constraints and its admissible sets of >= 2 tables."""
    limit = max_constraints(n, space)
    l = data.draw(st.integers(min_value=0, max_value=limit))
    partition_id = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
    constraints = partition_constraints(n, partition_id, 1 << l, space)
    by_size = admissible_results_by_size(n, constraints, space)
    return constraints, [mask for masks in by_size.values() for mask in masks]


class TestSplitSource:
    def test_linear_unconstrained_peels_each_table_in_ascending_order(self):
        splits_of = split_source(6, (), PlanSpace.LINEAR)
        for mask in range(1, 1 << 6):
            inner = [1 << bit for bit in range(6) if mask >> bit & 1]
            assert splits_of(mask) == [(mask ^ right, right) for right in inner]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=9), data=st.data())
    def test_linear_inner_operand_never_precedes_a_table_of_the_set(self, n, data):
        """Table ``u`` may be joined last only if no ``u ≺ v`` has ``v``
        in the set: the inner operands are exactly the tables that pass."""
        constraints, masks = _partition(n, PlanSpace.LINEAR, data)
        splits_of = split_source(n, constraints, PlanSpace.LINEAR)
        for mask in masks:
            last = [
                1 << u
                for u in range(n)
                if mask >> u & 1
                and not any(c.before == u and mask >> c.after & 1 for c in constraints)
            ]
            assert [right for _, right in splits_of(mask)] == last

    def test_bushy_unconstrained_admits_every_proper_subset(self):
        splits_of = split_source(6, (), PlanSpace.BUSHY)
        for mask in range(1, 1 << 6):
            splits = splits_of(mask)
            assert len(splits) == (1 << popcount(mask)) - 2
            assert {left for left, _ in splits} == {
                left for left in iter_subsets(mask) if left not in (0, mask)
            }

    @pytest.mark.parametrize("partition_id", range(4))
    def test_bushy_lists_left_operands_in_bushy_operands_order(self, partition_id):
        constraints = partition_constraints(7, partition_id, 4, PlanSpace.BUSHY)
        groups = _bushy_groups(7, constraints)
        splits_of = split_source(7, constraints, PlanSpace.BUSHY)
        for masks in admissible_results_by_size(7, constraints, PlanSpace.BUSHY).values():
            for mask in masks:
                lefts = [left for left in bushy_operands(mask, groups) if left not in (0, mask)]
                assert [left for left, _ in splits_of(mask)] == lefts

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=3, max_value=9), data=st.data())
    def test_bushy_matches_naive_enumeration(self, n, data):
        constraints, masks = _partition(n, PlanSpace.BUSHY, data)
        splits_of = split_source(n, constraints, PlanSpace.BUSHY)
        for mask in data.draw(st.lists(st.sampled_from(masks), min_size=1, max_size=5)):
            naive = naive_bushy_operands(mask, constraints)
            assert sorted(left for left, _ in splits_of(mask)) == sorted(
                left for left in naive if left not in (0, mask)
            )

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    def test_splits_partition_the_set(self, space):
        for partition_id in range(4):
            constraints = partition_constraints(7, partition_id, 4, space)
            splits_of = split_source(7, constraints, space)
            by_size = admissible_results_by_size(7, constraints, space)
            for mask in (mask for masks in by_size.values() for mask in masks):
                for left, right in splits_of(mask):
                    assert left and right
                    assert left | right == mask and not left & right

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    def test_operands_are_admissible(self, space):
        for partition_id in range(4):
            constraints = partition_constraints(7, partition_id, 4, space)
            splits_of = split_source(7, constraints, space)
            for mask in admissible_join_results(7, constraints, space):
                for left, right in splits_of(mask):
                    assert is_admissible(left, constraints)
                    assert is_admissible(right, constraints)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_linear_split_total_matches_theorem6(self, n):
        for l in range(max_constraints(n, PlanSpace.LINEAR) + 1):
            constraints = partition_constraints(n, 0, 1 << l, PlanSpace.LINEAR)
            splits_of = split_source(n, constraints, PlanSpace.LINEAR)
            by_size = admissible_results_by_size(n, constraints, PlanSpace.LINEAR)
            total = sum(len(splits_of(mask)) for masks in by_size.values() for mask in masks)
            assert total == linear_split_count(n, l)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_bushy_split_total_matches_theorem7(self, n):
        """Theorem 7 counts operand assignments with the degenerate ``0`` and
        ``mask`` included: one for the empty set, two per other set."""
        for l in range(max_constraints(n, PlanSpace.BUSHY) + 1):
            constraints = partition_constraints(n, 0, 1 << l, PlanSpace.BUSHY)
            splits_of = split_source(n, constraints, PlanSpace.BUSHY)
            total = sum(
                len(splits_of(mask)) + (2 if mask else 1)
                for mask in admissible_join_results(n, constraints, PlanSpace.BUSHY)
            )
            assert total == bushy_assignment_count(n, l)


class TestSolveTableSet:
    def _setup(self, query, settings):
        cost_model = CostModel(query, settings)
        pruning = make_pruning(settings, n_tables=query.n_tables)
        return scan_table(cost_model, pruning), cost_model, pruning

    def test_two_tables_cost_every_candidate_and_keep_the_cheapest(self, linear_settings):
        query = make_manual_query([100, 1000], [(0, 1, 0.01)])
        table, cost_model, pruning = self._setup(query, linear_settings)
        stats = WorkerStats(0, 1, 0)
        splits = split_source(2, (), PlanSpace.LINEAR)(0b11)
        solve_table_set(0b11, splits, table, cost_model, pruning, stats)
        candidates = [
            candidate
            for left_mask, right_mask in splits
            for candidate in cost_model.join_candidates(
                table[left_mask][0], table[right_mask][0]
            )
        ]
        assert stats.splits_considered == 2
        assert stats.plans_considered == len(candidates)
        assert 1 <= stats.plans_kept <= stats.plans_considered
        (plan,) = table[0b11]
        assert plan.cost == min(candidate.cost for candidate in candidates)

    def test_split_with_an_unsolved_operand_is_not_counted(self, linear_settings):
        query = SteinbrunnGenerator(23).query(3)
        table, cost_model, pruning = self._setup(query, linear_settings)
        stats = WorkerStats(0, 1, 0)
        splits = split_source(3, (), PlanSpace.LINEAR)(0b111)
        solve_table_set(0b111, splits, table, cost_model, pruning, stats)
        assert (stats.splits_considered, stats.plans_considered, stats.plans_kept) == (0, 0, 0)
        assert 0b111 not in table

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    def test_level_order_replay_reproduces_the_legacy_partition(self, query6, space):
        settings = OptimizerSettings(plan_space=space, backend=Backend.LEGACY)
        constraints = partition_constraints(6, 1, 4, space)
        table, cost_model, pruning = self._setup(query6, settings)
        splits_of = split_source(6, constraints, space)
        stats = WorkerStats(0, 1, 0)
        for masks in admissible_results_by_size(6, constraints, space).values():
            for mask in masks:
                solve_table_set(mask, splits_of(mask), table, cost_model, pruning, stats)
        counters, plans = search_outcome(optimize_partition(query6, 1, 4, settings))
        assert (stats.splits_considered, stats.plans_considered, stats.plans_kept) == (
            counters["splits_considered"],
            counters["plans_considered"],
            counters["plans_kept"],
        )
        assert len(table) == counters["table_entries"]
        assert [plan.cost for plan in table[0b111111]] == [cost for _, cost, _, _ in plans]


class TestEquivalenceAcrossSplitStrategies:
    def test_bushy_same_optimum_with_any_partition(self, query6, bushy_settings):
        serial = optimize_partition(query6, 0, 1, bushy_settings)
        best_serial = min(p.cost[0] for p in serial.plans)
        per_partition_best = []
        for partition_id in range(4):
            result = optimize_partition(query6, partition_id, 4, bushy_settings)
            per_partition_best.append(min(p.cost[0] for p in result.plans))
        assert min(per_partition_best) == pytest.approx(best_serial)
