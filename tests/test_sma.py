"""SMA baseline: correctness and the coordination-cost profile."""

from __future__ import annotations

import pytest

from repro.algorithms.sma import optimize_sma
from repro.cluster.serialization import query_bytes
from repro.config import MULTI_OBJECTIVE, SINGLE_OBJECTIVE, OptimizerSettings, PlanSpace
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator


@pytest.fixture
def query():
    return SteinbrunnGenerator(8).query(7)


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_matches_serial_linear(self, query, workers):
        serial_cost = best_plan(optimize_serial(query, OptimizerSettings())).cost[0]
        sma = optimize_sma(query, workers, OptimizerSettings())
        assert sma.best.cost[0] == pytest.approx(serial_cost)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_serial_bushy(self, workers):
        query = SteinbrunnGenerator(9).query(6)
        settings = OptimizerSettings(plan_space=PlanSpace.BUSHY)
        serial_cost = best_plan(optimize_serial(query, settings)).cost[0]
        sma = optimize_sma(query, workers, settings)
        assert sma.best.cost[0] == pytest.approx(serial_cost)

    def test_multi_objective_frontier(self):
        query = SteinbrunnGenerator(10).query(6)
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=1.0)
        serial = optimize_serial(query, settings)
        sma = optimize_sma(query, 4, settings)
        assert {p.cost for p in sma.plans} == {p.cost for p in serial.plans}

    def test_approximate_bushy_frontier_in_serial_order(self):
        """α-dominance is order-sensitive: SMA's workers must try bushy
        splits in serial DP's order to keep serial DP's α = 10 frontier."""
        query = SteinbrunnGenerator(10).query(6)
        settings = OptimizerSettings(
            plan_space=PlanSpace.BUSHY, objectives=MULTI_OBJECTIVE, alpha=10.0
        )
        serial = optimize_serial(query, settings)
        sma = optimize_sma(query, 4, settings)
        assert [p.cost for p in sma.plans] == [p.cost for p in serial.plans]

    def test_rejects_zero_workers(self, query):
        with pytest.raises(ValueError):
            optimize_sma(query, 0)


class TestCoordinationProfile:
    def test_round_count(self, query):
        sma = optimize_sma(query, 4)
        assert len(sma.rounds) == query.n_tables - 1

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    def test_rounds_ascend_by_cardinality(self, query, space):
        sma = optimize_sma(query, 4, OptimizerSettings(plan_space=space))
        assert [r.size for r in sma.rounds] == list(range(2, query.n_tables + 1))

    def test_one_operation_count_per_worker(self, query):
        sma = optimize_sma(query, 3)
        assert all(len(r.worker_plans_considered) == 3 for r in sma.rounds)

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    @pytest.mark.parametrize("objectives", [SINGLE_OBJECTIVE, MULTI_OBJECTIVE])
    def test_workers_cost_exactly_the_serial_candidates(self, query, space, objectives):
        """Split across workers, the rounds still cost every candidate serial
        DP costs — no more, no fewer."""
        settings = OptimizerSettings(plan_space=space, objectives=objectives)
        sma = optimize_sma(query, 4, settings)
        serial = optimize_serial(query, settings)
        assert sum(sum(r.worker_plans_considered) for r in sma.rounds) == (
            serial.stats.plans_considered
        )

    def test_round_sizes_cover_levels(self, query):
        sma = optimize_sma(query, 4)
        from math import comb

        for round_stats in sma.rounds:
            assert round_stats.n_sets == comb(query.n_tables, round_stats.size)

    def test_memotable_holds_everything(self, query):
        sma = optimize_sma(query, 4)
        assert sma.memotable_entries == (1 << query.n_tables) - 1

    def test_network_grows_with_workers(self, query):
        """The memotable broadcast makes traffic grow with worker count."""
        bytes_by_workers = [
            optimize_sma(query, workers).network_bytes for workers in (1, 2, 4, 8)
        ]
        assert bytes_by_workers == sorted(bytes_by_workers)
        assert bytes_by_workers[-1] > 3 * bytes_by_workers[0]

    def test_network_explodes_vs_mpq(self, query):
        """Figure 1's headline: SMA ships far more bytes, and its lead grows
        exponentially with query size (the memotable is exponential in n)."""
        from repro.algorithms.mpq import optimize_mpq

        sma = optimize_sma(query, 8)
        mpq = optimize_mpq(query, 8)
        ratio_small = sma.network_bytes / mpq.network_bytes
        assert ratio_small > 5

        bigger = SteinbrunnGenerator(8).query(10)
        ratio_large = (
            optimize_sma(bigger, 8).network_bytes
            / optimize_mpq(bigger, 8).network_bytes
        )
        assert ratio_large > 3 * ratio_small

    def test_simulated_time_degrades_at_scale(self, query):
        """Many workers mean more broadcast traffic and higher round cost."""
        few = optimize_sma(query, 2)
        many = optimize_sma(query, 64)
        assert many.simulated_seconds > few.simulated_seconds

    def test_worker_ops_balanced(self, query):
        sma = optimize_sma(query, 4)
        for round_stats in sma.rounds:
            ops = round_stats.worker_plans_considered
            if max(ops) > 30:  # skew is expected on tiny rounds
                assert min(ops) > 0

    def test_round_bytes_add_up_to_the_traffic_after_distribution(self, query):
        """Every byte after the query's distribution belongs to one round."""
        sma = optimize_sma(query, 4)
        assert sum(r.round_bytes for r in sma.rounds) == (
            sma.network_bytes - 4 * query_bytes(query)
        )


class TestSmaSingleTable:
    def test_single_table_no_rounds(self):
        from repro.algorithms.sma import optimize_sma
        from tests.conftest import make_manual_query

        report = optimize_sma(make_manual_query([7]), 4)
        assert report.rounds == []
        assert report.best.rows == 7.0
