"""Shared fixtures: small deterministic queries and common settings."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.config import MULTI_OBJECTIVE, Backend, OptimizerSettings, PlanSpace
from repro.core.worker import optimize_partition
from repro.plans.plan import JoinPlan, Plan, plan_signature
from repro.query.generator import SteinbrunnGenerator
from repro.query.predicates import JoinPredicate
from repro.query.query import JoinGraphKind, Query
from repro.query.schema import Column, Table


def make_manual_query(cardinalities, predicates=(), name="manual"):
    """Query with given table cardinalities and (i, j, selectivity) predicates.

    Every table gets two columns with domain size 100; predicate selectivity
    is set explicitly so tests can compute expected costs by hand.
    """
    tables = tuple(
        Table(
            name=f"T{i}",
            cardinality=cardinality,
            columns=(Column("c0", 100), Column("c1", 100)),
        )
        for i, cardinality in enumerate(cardinalities)
    )
    preds = tuple(
        JoinPredicate(
            left_table=i,
            left_column="c0",
            right_table=j,
            right_column="c0",
            selectivity=selectivity,
        )
        for i, j, selectivity in predicates
    )
    return Query(tables=tables, predicates=preds, name=name)


def iter_join_result_masks(plan: Plan) -> list[int]:
    """Masks of all intermediate join results produced by the plan, in
    post-order: the final result last, single-table scans excluded.  These
    are exactly the table sets the partitioning constraints restrict
    (Section 4.2)."""
    if not isinstance(plan, JoinPlan):
        return []
    return [*iter_join_result_masks(plan.left), *iter_join_result_masks(plan.right), plan.mask]


def search_outcome(result):
    """Everything of a ``PartitionResult`` two backends must agree on: every
    ``WorkerStats`` counter, and the plans (tree, cost, order, rows) in list
    order."""
    counters = {
        field.name: getattr(result.stats, field.name)
        for field in fields(result.stats)
        if field.name not in ("wall_time_s", "backend_used")
    }
    plans = [
        (plan_signature(plan), plan.cost, plan.order, plan.rows)
        for plan in result.plans
    ]
    return counters, plans


def legacy_and_fastdp(query, settings, partition_id=0, n_partitions=1):
    """One partition's ``PartitionResult`` from the reference core and from
    fastdp, in that order."""
    return [
        optimize_partition(
            query, partition_id, n_partitions, settings.replace(backend=backend)
        )
        for backend in (Backend.LEGACY, Backend.FASTDP)
    ]


@pytest.fixture
def star4():
    """Deterministic 4-table star query."""
    return SteinbrunnGenerator(11).query(4, JoinGraphKind.STAR)


@pytest.fixture
def star6():
    """Deterministic 6-table star query."""
    return SteinbrunnGenerator(12).query(6, JoinGraphKind.STAR)


@pytest.fixture
def chain5():
    """Deterministic 5-table chain query."""
    return SteinbrunnGenerator(13).query(5, JoinGraphKind.CHAIN)


@pytest.fixture
def linear_settings():
    """Single-objective left-deep settings (library default)."""
    return OptimizerSettings(plan_space=PlanSpace.LINEAR)


@pytest.fixture
def bushy_settings():
    """Single-objective bushy settings."""
    return OptimizerSettings(plan_space=PlanSpace.BUSHY)


@pytest.fixture
def multi_settings():
    """Two-metric settings with exact Pareto pruning."""
    return OptimizerSettings(
        plan_space=PlanSpace.LINEAR, objectives=MULTI_OBJECTIVE, alpha=1.0
    )
