"""Semantic validation: different plans must mean the same query.

The DP's entire plan space — every join order, every tree shape, every
operator assignment — denotes the same relational expression.  These helpers
turn executed results into order-insensitive signatures so tests can assert
that equivalence on real tuples.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.exec.data import Database
from repro.exec.engine import ExecRow, execute_plan
from repro.plans.plan import Plan

Signature = Counter


def result_signature(rows: Iterable[ExecRow]) -> Signature:
    """Order-insensitive multiset signature of a result."""
    return Counter(tuple(sorted(row.items())) for row in rows)


def plans_equivalent(plans: Iterable[Plan], database: Database) -> bool:
    """Whether every plan produces the identical result multiset."""
    reference: Signature | None = None
    for plan in plans:
        signature = result_signature(execute_plan(plan, database))
        if reference is None:
            reference = signature
        elif signature != reference:
            return False
    return True
