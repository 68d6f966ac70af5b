"""Cost metric formulas (Steinbrunn et al.) and their composition rules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MULTI_OBJECTIVE, Objective
from repro.cost.metrics import (
    BNL_BLOCK_TUPLES,
    HASH_FACTOR,
    BufferSpaceMetric,
    ExecutionTimeMetric,
    make_metrics,
)
from repro.plans.operators import JoinAlgorithm
from repro.query.schema import Table

TABLE = Table("R", 1000)


class TestExecutionTime:
    metric = ExecutionTimeMetric()

    def test_scan_cost_is_rows(self):
        assert self.metric.scan_cost(TABLE, 1000.0) == 1000.0

    def test_nested_loop(self):
        cost = self.metric.join_cost(
            5.0, 7.0, 100.0, 200.0, 50.0, JoinAlgorithm.BLOCK_NESTED_LOOP, True, True
        )
        assert cost == 5.0 + 7.0 + 100.0 * 200.0

    def test_hash(self):
        cost = self.metric.join_cost(
            0.0, 0.0, 100.0, 200.0, 50.0, JoinAlgorithm.HASH, True, True
        )
        assert cost == pytest.approx(HASH_FACTOR * 300.0)

    def test_sort_merge_both_sorts(self):
        cost = self.metric.join_cost(
            0.0, 0.0, 100.0, 200.0, 50.0, JoinAlgorithm.SORT_MERGE, True, True
        )
        expected = 100 * math.log2(100) + 200 * math.log2(200) + 300
        assert cost == pytest.approx(expected)

    def test_sort_merge_skips_presorted(self):
        both = self.metric.join_cost(
            0.0, 0.0, 100.0, 200.0, 50.0, JoinAlgorithm.SORT_MERGE, True, True
        )
        left_sorted = self.metric.join_cost(
            0.0, 0.0, 100.0, 200.0, 50.0, JoinAlgorithm.SORT_MERGE, False, True
        )
        neither = self.metric.join_cost(
            0.0, 0.0, 100.0, 200.0, 50.0, JoinAlgorithm.SORT_MERGE, False, False
        )
        assert neither < left_sorted < both
        assert neither == 300.0

    def test_additive_in_children(self):
        base = self.metric.join_cost(
            0.0, 0.0, 10.0, 10.0, 5.0, JoinAlgorithm.HASH, True, True
        )
        shifted = self.metric.join_cost(
            3.0, 4.0, 10.0, 10.0, 5.0, JoinAlgorithm.HASH, True, True
        )
        assert shifted == pytest.approx(base + 7.0)

    def test_tiny_input_sort_safe(self):
        cost = self.metric.join_cost(
            0.0, 0.0, 1.0, 1.0, 1.0, JoinAlgorithm.SORT_MERGE, True, True
        )
        assert cost > 0


class TestBufferSpace:
    metric = BufferSpaceMetric()

    def test_scan_buffer(self):
        assert self.metric.scan_cost(TABLE, 1000.0) == 1.0

    def test_nested_loop_block(self):
        cost = self.metric.join_cost(
            1.0, 1.0, 1e6, 1e6, 1.0, JoinAlgorithm.BLOCK_NESTED_LOOP, True, True
        )
        assert cost == BNL_BLOCK_TUPLES

    def test_hash_buffers_build_side(self):
        cost = self.metric.join_cost(
            1.0, 1.0, 100.0, 500.0, 1.0, JoinAlgorithm.HASH, True, True
        )
        assert cost == 500.0

    def test_sort_merge_buffers_unsorted_inputs(self):
        both = self.metric.join_cost(
            1.0, 1.0, 100.0, 500.0, 1.0, JoinAlgorithm.SORT_MERGE, True, True
        )
        assert both == 600.0
        one = self.metric.join_cost(
            1.0, 1.0, 100.0, 500.0, 1.0, JoinAlgorithm.SORT_MERGE, False, True
        )
        assert one == 500.0
        none = self.metric.join_cost(
            1.0, 1.0, 100.0, 500.0, 1.0, JoinAlgorithm.SORT_MERGE, False, False
        )
        assert none == 1.0

    def test_max_composition(self):
        cost = self.metric.join_cost(
            900.0, 50.0, 10.0, 10.0, 1.0, JoinAlgorithm.HASH, True, True
        )
        assert cost == 900.0


#: Non-negative costs and row counts, with the values that break float
#: reasoning mixed in: zero, subnormals, squares that overflow, and ``inf``.
EXTREME = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 2.0, 1e155, 1e300, math.inf]),
    st.floats(min_value=0.0, allow_nan=False),
)


class TestSortMergeNeverBeatsHash:
    """vecdp leaves sort-merge uncosted: without interesting orders its
    candidate is never cheaper than the hash one generated just before it,
    in any metric, for the floats the reference metrics compute."""

    @settings(max_examples=500, deadline=None)
    @given(EXTREME, EXTREME, EXTREME, EXTREME, EXTREME)
    def test_hash_costs_no_more_than_sort_merge(
        self, left_cost, right_cost, left_rows, right_rows, out_rows
    ):
        operands = (left_cost, right_cost, left_rows, right_rows, out_rows)
        for metric in make_metrics(tuple(Objective)):
            sort_merge = metric.join_cost(
                *operands, JoinAlgorithm.SORT_MERGE, True, True
            )
            hashed = metric.join_cost(*operands, JoinAlgorithm.HASH, False, False)
            assert sort_merge >= hashed, metric.name


class TestMakeMetrics:
    def test_single(self):
        metrics = make_metrics((Objective.EXECUTION_TIME,))
        assert len(metrics) == 1
        assert isinstance(metrics[0], ExecutionTimeMetric)

    def test_multi(self):
        metrics = make_metrics(MULTI_OBJECTIVE)
        assert [m.name for m in metrics] == ["time", "buffer"]
