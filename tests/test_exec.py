"""Execution engine: operators agree, plans are semantically equivalent."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerSettings, PlanSpace
from repro.core.exhaustive import iter_bushy_plans, iter_leftdeep_plans
from repro.core.serial import best_plan, optimize_serial
from repro.cost.costmodel import CostModel
from repro.exec.data import generate_database
from repro.exec.engine import execute_plan
from repro.exec.validate import plans_equivalent, result_signature
from repro.plans.operators import JoinAlgorithm
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from tests.conftest import make_manual_query


@pytest.fixture
def query():
    return SteinbrunnGenerator(70).query(4, JoinGraphKind.CHAIN)


@pytest.fixture
def database(query):
    return generate_database(query, seed=1, max_rows=25)


class TestDataGeneration:
    def test_row_counts_capped(self, query, database):
        for table_number, table in enumerate(query.tables):
            expected = min(table.cardinality, 25)
            assert len(database.table_rows(table_number)) == expected

    def test_values_within_domains(self, query, database):
        for table_number, table in enumerate(query.tables):
            for row in database.table_rows(table_number):
                for column in table.columns:
                    assert 0 <= row[column.name] < column.domain_size

    def test_deterministic(self, query):
        a = generate_database(query, seed=5)
        b = generate_database(query, seed=5)
        assert a.rows == b.rows

    def test_seed_changes_data(self, query):
        a = generate_database(query, seed=5)
        b = generate_database(query, seed=6)
        assert a.rows != b.rows

    def test_max_rows_validated(self, query):
        with pytest.raises(ValueError):
            generate_database(query, max_rows=0)


class TestScanExecution:
    def test_scan_returns_all_rows(self, query, database):
        model = CostModel(query, OptimizerSettings())
        scan = model.scan_plans(2)[0]
        rows = execute_plan(scan, database)
        assert len(rows) == len(database.table_rows(2))
        for row in rows:
            for (table_number, _), __ in zip(row.keys(), row.values()):
                assert table_number == 2


class TestJoinOperatorsAgree:
    def test_all_algorithms_same_result(self):
        query = make_manual_query([40, 40], [(0, 1, 0.01)])
        database = generate_database(query, seed=3, max_rows=40)
        model = CostModel(query, OptimizerSettings())
        left, right = model.scan_plans(0)[0], model.scan_plans(1)[0]
        signatures = []
        for candidate in model.join_candidates(left, right):
            plan = model.build_join(left, right, candidate)
            signatures.append(result_signature(execute_plan(plan, database)))
        assert len(signatures) == 3  # BNL, hash, sort-merge
        assert signatures[0] == signatures[1] == signatures[2]

    def test_cross_product_size(self):
        query = make_manual_query([10, 7])
        database = generate_database(query, seed=2, max_rows=50)
        model = CostModel(query, OptimizerSettings())
        left, right = model.scan_plans(0)[0], model.scan_plans(1)[0]
        (candidate,) = model.join_candidates(left, right)
        assert candidate.algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP
        plan = model.build_join(left, right, candidate)
        assert len(execute_plan(plan, database)) == 70

    def test_equi_join_filters(self):
        query = make_manual_query([30, 30], [(0, 1, 0.01)])
        database = generate_database(query, seed=4, max_rows=30)
        model = CostModel(query, OptimizerSettings())
        left, right = model.scan_plans(0)[0], model.scan_plans(1)[0]
        plan = model.build_join(left, right, model.join_candidates(left, right)[0])
        rows = execute_plan(plan, database)
        for row in rows:
            assert row[(0, "c0")] == row[(1, "c0")]


class TestPlanEquivalence:
    def test_all_leftdeep_plans_equivalent(self, query, database):
        model = CostModel(query, OptimizerSettings())
        plans = list(iter_leftdeep_plans(query, model))
        assert plans_equivalent(plans, database)

    def test_all_bushy_plans_equivalent(self, database, query):
        model = CostModel(query, OptimizerSettings(plan_space=PlanSpace.BUSHY))
        plans = list(iter_bushy_plans(query, model))
        assert plans_equivalent(plans[:300], database)

    def test_detects_inequivalence(self, query, database):
        """Sanity: the check actually fails for plans of different queries."""
        model = CostModel(query, OptimizerSettings())
        full = best_plan(optimize_serial(query, OptimizerSettings()))
        scan = model.scan_plans(0)[0]
        assert not plans_equivalent([full, scan], database)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        kind=st.sampled_from([JoinGraphKind.CHAIN, JoinGraphKind.STAR]),
    )
    def test_optimal_plans_of_both_spaces_agree(self, seed, kind):
        query = SteinbrunnGenerator(seed).query(4, kind)
        database = generate_database(query, seed=seed, max_rows=15)
        linear = best_plan(
            optimize_serial(query, OptimizerSettings(plan_space=PlanSpace.LINEAR))
        )
        bushy = best_plan(
            optimize_serial(query, OptimizerSettings(plan_space=PlanSpace.BUSHY))
        )
        assert plans_equivalent([linear, bushy], database)


class TestEmpiricalCardinality:
    def test_selectivity_direction(self):
        """More selective predicates yield fewer rows on real data."""
        loose = make_manual_query([50, 50], [(0, 1, 1.0)])
        # Same schema but domain-100 'selective' semantics come from data:
        # build with small vs large domains by hand.
        from repro.query.schema import Column, Table
        from repro.query.predicates import JoinPredicate
        from repro.query.query import Query

        def query_with_domain(domain):
            tables = tuple(
                Table(f"T{i}", 50, (Column("c0", domain),)) for i in range(2)
            )
            predicate = JoinPredicate(0, "c0", 1, "c0", selectivity=1.0 / domain)
            return Query(tables=tables, predicates=(predicate,))

        small_domain = query_with_domain(2)
        large_domain = query_with_domain(500)
        results = []
        for q in (small_domain, large_domain):
            database = generate_database(q, seed=9, max_rows=50)
            model = CostModel(q, OptimizerSettings())
            left, right = model.scan_plans(0)[0], model.scan_plans(1)[0]
            plan = model.build_join(left, right, model.join_candidates(left, right)[0])
            results.append(len(execute_plan(plan, database)))
        assert results[0] > results[1]
