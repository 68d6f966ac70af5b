"""Interesting orders: sort-merge order reuse across joins."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerSettings, PlanSpace
from repro.core import fastdp
from repro.core.serial import best_plan, optimize_serial
from repro.plans.operators import JoinAlgorithm
from repro.plans.orders import UNSORTED
from repro.plans.plan import JoinPlan
from repro.query.generator import SteinbrunnGenerator
from repro.query.predicates import JoinPredicate
from repro.query.query import JoinGraphKind, Query
from repro.query.schema import Column, Table
from tests.conftest import legacy_and_fastdp, make_manual_query, search_outcome


def count_sort_merges(plan):
    if not isinstance(plan, JoinPlan):
        return 0
    own = 1 if plan.algorithm is JoinAlgorithm.SORT_MERGE else 0
    return own + count_sort_merges(plan.left) + count_sort_merges(plan.right)


class TestOrdersNeverHurt:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_orders_on_at_most_orders_off(self, seed):
        query = SteinbrunnGenerator(seed).query(6)
        off = best_plan(optimize_serial(query, OptimizerSettings()))
        on = best_plan(
            optimize_serial(query, OptimizerSettings(consider_orders=True))
        )
        assert on.cost[0] <= off.cost[0] * (1 + 1e-9)

    def test_orders_track_more_plans(self):
        query = SteinbrunnGenerator(6).query(6)
        off = optimize_serial(query, OptimizerSettings())
        on = optimize_serial(query, OptimizerSettings(consider_orders=True))
        assert on.stats.stored_plans >= off.stats.stored_plans


class TestOrderReuseScenario:
    def test_shared_sort_key_benefits(self):
        """Two joins over the same column: sorting once must pay off.

        T0 joins T1 and T2 on the *same* column T0.c0, so a sort-merge join
        producing output sorted on T0.c0 makes the second sort-merge free of
        its sort term.  With orders on, the optimizer may keep the costlier
        sorted intermediate plan; the final cost must never exceed orders-off.
        """
        query = make_manual_query(
            [5000, 4000, 3000],
            [(0, 1, 0.001), (0, 2, 0.001)],
        )
        off = best_plan(optimize_serial(query, OptimizerSettings()))
        on = best_plan(
            optimize_serial(query, OptimizerSettings(consider_orders=True))
        )
        assert on.cost[0] <= off.cost[0]

    def test_sorted_output_recorded(self):
        query = make_manual_query([5000, 4000], [(0, 1, 0.001)])
        result = optimize_serial(query, OptimizerSettings(consider_orders=True))
        orders = {plan.order for plan in result.plans}
        # The returned best plan may or may not be sorted, but every stored
        # sort-merge plan must carry its output order.
        for plan in result.plans:
            if isinstance(plan, JoinPlan) and plan.algorithm is JoinAlgorithm.SORT_MERGE:
                assert plan.order is not None


class TestWhatTheFlatKernelReliesOn:
    def test_an_order_is_satisfied_only_by_itself(self):
        """``fastdp._run_single_orders`` keeps at most one entry per order id
        and decides a candidate against the cheapest kept cost (unsorted
        candidate) or its own order's kept cost (sorted candidate).  That is
        ``InterestingOrderPruning`` only while ``order_satisfies`` means
        "nothing required, or the same order" — if it ever grows prefix or
        equivalence orders, this fails before the kernel silently diverges.
        """
        query = SteinbrunnGenerator(7, clustered_tables=True).query(
            7, JoinGraphKind.CYCLE
        )
        interner = fastdp._intern_query_orders(query)
        table = interner.satisfies_table()
        assert len(interner) > 7
        for produced in range(len(interner)):
            for required in range(len(interner)):
                assert table[produced][required] == (
                    required == UNSORTED or produced == required
                )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tie_heavy_queries_match_the_legacy_policy(self, data):
        """Two cardinalities and three selectivities: equal-cost candidates
        of different orders are the rule here, not the exception."""
        n = data.draw(st.integers(min_value=3, max_value=6))
        clustered = data.draw(st.booleans())
        column = st.sampled_from(["c0", "c1"])
        tables = tuple(
            Table(
                name=f"T{i}",
                cardinality=data.draw(st.sampled_from([10, 1000])),
                columns=(Column("c0", 100), Column("c1", 100)),
                clustered_on="c0" if clustered else None,
            )
            for i in range(n)
        )
        edges = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        edges |= data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda edge: edge[0] < edge[1]
                ),
                max_size=3,
            )
        )
        predicates = tuple(
            JoinPredicate(
                left_table=left,
                left_column=data.draw(column),
                right_table=right,
                right_column=data.draw(column),
                selectivity=data.draw(st.sampled_from([1.0, 0.5, 0.1])),
            )
            for left, right in sorted(edges)
        )
        query = Query(tables=tables, predicates=predicates, name="ties")
        n_partitions = data.draw(st.sampled_from([1, 2]))
        settings_ = OptimizerSettings(
            plan_space=data.draw(st.sampled_from(list(PlanSpace))),
            consider_orders=True,
        )
        for partition_id in range(n_partitions):
            legacy, fast = legacy_and_fastdp(
                query, settings_, partition_id, n_partitions
            )
            assert search_outcome(legacy) == search_outcome(fast)
