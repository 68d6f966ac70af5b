"""Renumbering plan trees between isomorphic queries.

The plan cache stores plans in *canonical* table numbering (see
:mod:`repro.service.fingerprint`).  Serving a cache hit to a request whose
query uses a different (but isomorphic) numbering is then a pure relabeling:
rewrite every table number, bitmask, and sort-order reference through the
permutation.  Costs, cardinalities, and operator choices are invariant under
relabeling, so they are copied verbatim — this is what makes a cache hit
O(plan size) instead of O(DP).
"""

from __future__ import annotations

from repro.plans.orders import SortOrder
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.util.bitset import bits


def remap_mask(mask: int, mapping: tuple[int, ...]) -> int:
    """Translate a table-set bitmask through ``mapping[old] = new``."""
    remapped = 0
    for table in bits(mask):
        remapped |= 1 << mapping[table]
    return remapped


def remap_plan(plan: Plan, mapping: tuple[int, ...]) -> Plan:
    """Rebuild ``plan`` with every table number translated through ``mapping``.

    ``mapping`` must be a permutation of ``range(n_tables)`` arising from a
    query isomorphism; under that assumption the remapped plan is exactly the
    plan the DP would have produced for the relabeled query.  Nodes are
    constructed directly, children first: a scan's mask is its table's bit
    and a join's the union of its operands', so no mask is walked bit by bit.
    ``tests/test_fingerprint_properties.py`` holds the ``dataclasses.replace``
    formulation as the reference, field for field, so a field added to a
    plan class cannot be dropped here unnoticed.
    """
    order = plan.order
    if order is not None:
        order = SortOrder(mapping[order.table], order.column)
    if isinstance(plan, ScanPlan):
        table = mapping[plan.table]
        return ScanPlan(1 << table, plan.rows, plan.cost, order, table, plan.algorithm)
    assert isinstance(plan, JoinPlan)
    left = remap_plan(plan.left, mapping)
    right = remap_plan(plan.right, mapping)
    return JoinPlan(
        left.mask | right.mask, plan.rows, plan.cost, order, left, right, plan.algorithm
    )


def invert(numbering: tuple[int, ...]) -> tuple[int, ...]:
    """Invert a permutation: ``invert(p)[p[i]] == i``."""
    inverse = [0] * len(numbering)
    for source, target in enumerate(numbering):
        inverse[target] = source
    return tuple(inverse)
