"""Plan trees, operators, and interesting orders."""

from __future__ import annotations

import pytest

from repro.config import OptimizerSettings
from repro.cost.costmodel import CostModel
from repro.plans.operators import ALL_JOIN_ALGORITHMS, JoinAlgorithm
from repro.plans.orders import SortOrder, order_satisfies
from repro.plans.plan import plan_depth, plan_join_count
from tests.conftest import iter_join_result_masks, make_manual_query


def build_leftdeep(query, order, settings=None):
    """Cheapest-operator left-deep plan along the given order."""
    model = CostModel(query, settings or OptimizerSettings())
    plan = model.scan_plans(order[0])[0]
    for table_number in order[1:]:
        scan = model.scan_plans(table_number)[0]
        candidate = min(model.join_candidates(plan, scan), key=lambda c: c.cost[0])
        plan = model.build_join(plan, scan, candidate)
    return plan


def build_bushy_pair_of_pairs(query):
    """((T0 x T1) x (T2 x T3)) — the smallest genuinely bushy plan."""
    model = CostModel(query, OptimizerSettings())
    scans = [model.scan_plans(i)[0] for i in range(4)]
    left = model.build_join(
        scans[0], scans[1], model.join_candidates(scans[0], scans[1])[0]
    )
    right = model.build_join(
        scans[2], scans[3], model.join_candidates(scans[2], scans[3])[0]
    )
    top = model.build_join(left, right, model.join_candidates(left, right)[0])
    return top


@pytest.fixture
def query4():
    return make_manual_query([100, 200, 300, 400], [(0, 1, 0.01), (1, 2, 0.01)])


class TestOperators:
    def test_equi_requirement(self):
        assert JoinAlgorithm.HASH.requires_equi_predicate
        assert JoinAlgorithm.SORT_MERGE.requires_equi_predicate
        assert not JoinAlgorithm.BLOCK_NESTED_LOOP.requires_equi_predicate

    def test_all_algorithms_listed(self):
        assert len(ALL_JOIN_ALGORITHMS) == 3


class TestOrders:
    def test_none_requirement_always_satisfied(self):
        assert order_satisfies(None, None)
        assert order_satisfies(SortOrder(0, "a"), None)

    def test_exact_match(self):
        assert order_satisfies(SortOrder(0, "a"), SortOrder(0, "a"))

    def test_mismatch(self):
        assert not order_satisfies(SortOrder(0, "a"), SortOrder(0, "b"))
        assert not order_satisfies(None, SortOrder(0, "a"))

    def test_sort_order_is_comparable(self):
        assert SortOrder(0, "a") < SortOrder(1, "a")


class TestPlanShape:
    def test_scan_is_left_deep(self, query4):
        model = CostModel(query4, OptimizerSettings())
        assert model.scan_plans(0)[0].is_left_deep()

    def test_leftdeep_plan(self, query4):
        plan = build_leftdeep(query4, [0, 1, 2, 3])
        assert plan.is_left_deep()
        assert plan.n_tables == 4
        assert plan.mask == 0b1111

    def test_bushy_not_left_deep(self, query4):
        plan = build_bushy_pair_of_pairs(query4)
        assert not plan.is_left_deep()

    def test_join_order_roundtrip(self, query4):
        plan = build_leftdeep(query4, [2, 0, 3, 1])
        assert plan.join_order() == (2, 0, 3, 1)

    def test_join_order_rejects_bushy(self, query4):
        plan = build_bushy_pair_of_pairs(query4)
        with pytest.raises(ValueError):
            plan.join_order()

    def test_join_count(self, query4):
        assert plan_join_count(build_leftdeep(query4, [0, 1, 2, 3])) == 3

    def test_depth_left_deep(self, query4):
        assert plan_depth(build_leftdeep(query4, [0, 1, 2, 3])) == 4

    def test_depth_bushy(self, query4):
        assert plan_depth(build_bushy_pair_of_pairs(query4)) == 3

    def test_join_result_masks_leftdeep(self, query4):
        plan = build_leftdeep(query4, [0, 1, 2, 3])
        assert iter_join_result_masks(plan) == [0b0011, 0b0111, 0b1111]

    def test_join_result_masks_bushy(self, query4):
        plan = build_bushy_pair_of_pairs(query4)
        assert set(iter_join_result_masks(plan)) == {0b0011, 0b1100, 0b1111}


class TestPretty:
    def test_pretty_contains_operators(self, query4):
        text = build_leftdeep(query4, [0, 1, 2, 3]).pretty()
        assert "Scan" in text and "Join" in text

    def test_pretty_uses_names(self, query4):
        names = tuple(t.name for t in query4.tables)
        text = build_leftdeep(query4, [0, 1, 2, 3]).pretty(names)
        assert "T0" in text

    def test_pretty_line_count(self, query4):
        text = build_leftdeep(query4, [0, 1, 2, 3]).pretty()
        assert len(text.splitlines()) == 7  # 4 scans + 3 joins
