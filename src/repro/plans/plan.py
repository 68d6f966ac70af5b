"""Immutable query plan trees.

Plans follow the paper's model (Section 3): ``Scan(q)`` for a base table and
``Join(p_L, p_R)`` with an outer (left) and inner (right) operand.  A plan is
*left-deep* iff the right operand of every join is a scan; everything else is
*bushy*.

Every plan node carries the derived properties the optimizer needs:

* ``mask`` — bitmask of joined table numbers;
* ``rows`` — estimated output cardinality;
* ``cost`` — a tuple of cost-metric values (one entry per objective);
* ``order`` — the :class:`~repro.plans.orders.SortOrder` of the output, if any.

Plan objects are created exclusively by a cost model (``repro.cost``), which
guarantees the derived fields are consistent.  As noted in the paper's space
analysis, each DP plan is just two pointers to sub-plans plus O(1) fields,
and that is all a node holds: the classes are frozen dataclasses with
``__slots__``, so a node has no per-instance ``__dict__`` and cannot be
assigned to.  Equality, hashing, ``dataclasses.replace`` and pickling are
the dataclass's, field by field; assigning or deleting any name raises
``FrozenInstanceError`` (:func:`~repro.plans.orders.refuse_assignment`).
:class:`ScanPlan` and :class:`JoinPlan` fill their slots through their own
slot descriptors rather than the frozen dataclass's ``object.__setattr__``
per field, which costs about twice as much; a disk hit or a relabelling
builds every node of a plan again.  A named tuple would build faster still,
but a plan would then be a sequence (``json.dumps`` writes it as an array,
``np.array`` unpacks it) equal to a plain tuple of its fields, and no
longer a dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plans.operators import JoinAlgorithm, ScanAlgorithm
from repro.plans.orders import SortOrder, refuse_assignment


@dataclass(frozen=True, slots=True)
class Plan:
    """Base class for plan nodes; use :class:`ScanPlan` or :class:`JoinPlan`."""

    mask: int
    rows: float
    cost: tuple[float, ...]
    order: SortOrder | None

    @property
    def n_tables(self) -> int:
        """Number of base tables joined by this plan."""
        return self.mask.bit_count()

    def is_left_deep(self) -> bool:
        """Whether every join's inner operand is a single-table scan."""
        raise NotImplementedError

    def pretty(self, table_names: tuple[str, ...] | None = None) -> str:
        """Multi-line indented rendering of the plan tree."""
        lines: list[str] = []
        self._pretty_into(lines, 0, table_names)
        return "\n".join(lines)

    def _pretty_into(
        self, lines: list[str], depth: int, table_names: tuple[str, ...] | None
    ) -> None:
        raise NotImplementedError


@dataclass(frozen=True, slots=True, init=False)
class ScanPlan(Plan):
    """Scan of a single base table (the paper's ``Scan(q)``)."""

    table: int
    algorithm: ScanAlgorithm = ScanAlgorithm.FULL_SCAN

    def __init__(self, mask, rows, cost, order, table, algorithm=ScanAlgorithm.FULL_SCAN) -> None:
        _scan_mask(self, mask)
        _scan_rows(self, rows)
        _scan_cost(self, cost)
        _scan_order(self, order)
        _scan_table(self, table)
        _scan_algorithm(self, algorithm)

    def is_left_deep(self) -> bool:
        return True

    def _pretty_into(
        self, lines: list[str], depth: int, table_names: tuple[str, ...] | None
    ) -> None:
        name = table_names[self.table] if table_names else f"T{self.table}"
        lines.append(
            f"{'  ' * depth}Scan[{self.algorithm.value}] {name} "
            f"(rows={self.rows:.0f})"
        )


@dataclass(frozen=True, slots=True, init=False)
class JoinPlan(Plan):
    """Join of two sub-plans (the paper's ``Join(p_L, p_R)``).

    ``left`` is the outer operand, ``right`` the inner operand.
    """

    left: Plan
    right: Plan
    algorithm: JoinAlgorithm = JoinAlgorithm.BLOCK_NESTED_LOOP

    def __init__(
        self, mask, rows, cost, order, left, right, algorithm=JoinAlgorithm.BLOCK_NESTED_LOOP
    ) -> None:
        _join_mask(self, mask)
        _join_rows(self, rows)
        _join_cost(self, cost)
        _join_order(self, order)
        _join_left(self, left)
        _join_right(self, right)
        _join_algorithm(self, algorithm)

    def is_left_deep(self) -> bool:
        return isinstance(self.right, ScanPlan) and self.left.is_left_deep()

    def join_order(self) -> tuple[int, ...]:
        """For left-deep plans: the join order as a table-number sequence.

        The sequence lists tables in the order they are joined (outermost
        first).  Raises ``ValueError`` for bushy plans, whose shape cannot be
        captured by a sequence (Section 3).
        """
        if not self.is_left_deep():
            raise ValueError("join_order() is only defined for left-deep plans")
        order: list[int] = []
        node: Plan = self
        while isinstance(node, JoinPlan):
            assert isinstance(node.right, ScanPlan)
            order.append(node.right.table)
            node = node.left
        assert isinstance(node, ScanPlan)
        order.append(node.table)
        order.reverse()
        return tuple(order)

    def _pretty_into(
        self, lines: list[str], depth: int, table_names: tuple[str, ...] | None
    ) -> None:
        order = f", order={self.order}" if self.order else ""
        lines.append(
            f"{'  ' * depth}Join[{self.algorithm.value}] "
            f"(rows={self.rows:.0f}, cost={_fmt_cost(self.cost)}{order})"
        )
        self.left._pretty_into(lines, depth + 1, table_names)
        self.right._pretty_into(lines, depth + 1, table_names)


# Each class's own descriptors: Python 3.10 re-declares a base class's slots
# in a slotted dataclass subclass, 3.11 and later inherit them, and a read
# finds the class's own descriptor under either.
_scan_mask, _scan_rows, _scan_cost, _scan_order, _scan_table, _scan_algorithm = (
    getattr(ScanPlan, name).__set__
    for name in ("mask", "rows", "cost", "order", "table", "algorithm")
)
_join_mask, _join_rows, _join_cost, _join_order, _join_left, _join_right, _join_algorithm = (
    getattr(JoinPlan, name).__set__
    for name in ("mask", "rows", "cost", "order", "left", "right", "algorithm")
)
# Any name, field or not, is refused with FrozenInstanceError.
ScanPlan.__setattr__ = ScanPlan.__delattr__ = refuse_assignment
JoinPlan.__setattr__ = JoinPlan.__delattr__ = refuse_assignment


def _fmt_cost(cost: tuple[float, ...]) -> str:
    return "(" + ", ".join(f"{value:.3g}" for value in cost) + ")"


def plan_signature(plan: Plan) -> tuple:
    """A total, backend-independent ordering key for a plan's *structure*.

    Encodes the tree in preorder: ``(0, table, scan algorithm)`` for scans,
    ``(1, join algorithm, left signature, right signature)`` for joins.
    Two plans compare equal under this key iff they are structurally
    identical (same tree shape, operand order, tables, and operators), so
    sorting by ``(cost, plan_signature(plan))`` is a deterministic total
    order no matter which enumeration backend — or generation order —
    produced the plans.  See :func:`plan_tie_key`.
    """
    if isinstance(plan, ScanPlan):
        return (0, plan.table, plan.algorithm.value)
    assert isinstance(plan, JoinPlan)
    return (
        1,
        plan.algorithm.value,
        plan_signature(plan.left),
        plan_signature(plan.right),
    )


def plan_tie_key(plan: Plan) -> tuple:
    """Sort key implementing the documented cross-backend tie rule.

    "Best plan" selection orders plans by

    1. the first cost metric (the optimization objective),
    2. the remaining cost metrics, lexicographically,
    3. the structural :func:`plan_signature`.

    Generation order — which differs between the legacy and fastdp
    enumeration cores when several plans share the optimal cost — never
    participates, so every backend (and any shuffling of partition results)
    selects the same plan.
    """
    return (plan.cost[0], plan.cost, plan_signature(plan))


def plan_join_count(plan: Plan) -> int:
    """Number of join operators in the plan tree, which has ``2 * joins + 1`` nodes."""
    if isinstance(plan, ScanPlan):
        return 0
    assert isinstance(plan, JoinPlan)
    return 1 + plan_join_count(plan.left) + plan_join_count(plan.right)


def plan_depth(plan: Plan) -> int:
    """Height of the plan tree (a scan has depth 1)."""
    if isinstance(plan, ScanPlan):
        return 1
    assert isinstance(plan, JoinPlan)
    return 1 + max(plan_depth(plan.left), plan_depth(plan.right))
