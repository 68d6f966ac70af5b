"""Query plan representation: physical operators, plan trees, sort orders."""

from repro.plans.operators import JoinAlgorithm, ScanAlgorithm
from repro.plans.orders import SortOrder, order_satisfies
from repro.plans.plan import JoinPlan, Plan, ScanPlan, plan_depth, plan_join_count

__all__ = [
    "JoinAlgorithm",
    "ScanAlgorithm",
    "SortOrder",
    "order_satisfies",
    "JoinPlan",
    "Plan",
    "ScanPlan",
    "plan_depth",
    "plan_join_count",
]
