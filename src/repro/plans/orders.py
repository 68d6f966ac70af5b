"""Interesting orders (physical sort properties of intermediate results).

A sort order names the attribute an intermediate result is sorted on.  Sorted
inputs let a sort-merge join skip its sort phase, so a more expensive sorted
plan can beat a cheaper unsorted one downstream — Selinger's classic
*interesting orders*.  Pruning must therefore keep one best plan per
(table set, order), which is exactly what the paper's complexity analysis
accounts for in Section 5.4.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass


def refuse_assignment(self, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the frozen slotted classes.

    Every assignment and deletion raises ``FrozenInstanceError``.  For a
    name that is not a field, a frozen ``slots=True`` dataclass's generated
    ``__setattr__`` calls ``super()`` on the class it was created as, not on
    its slotted copy, and raises ``TypeError`` on Python 3.11.
    """
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


@dataclass(frozen=True, order=True, slots=True, init=False)
class SortOrder:
    """Output sorted on column ``column`` of query table number ``table``.

    Built like the plan nodes (:mod:`repro.plans.plan`): the constructor
    fills the slots through the class's own descriptors, not through
    ``object.__setattr__`` per field, since every ordered node builds one
    again on each relabelling and each decode.
    """

    table: int
    column: str

    def __init__(self, table: int, column: str) -> None:
        _order_table(self, table)
        _order_column(self, column)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.table}.{self.column}"


SortOrder.__setattr__ = SortOrder.__delattr__ = refuse_assignment
_order_table, _order_column = SortOrder.table.__set__, SortOrder.column.__set__


def order_satisfies(produced: SortOrder | None, required: SortOrder | None) -> bool:
    """Whether a plan producing ``produced`` satisfies a ``required`` order.

    ``None`` as the requirement means "any order is fine"; a plan with no
    order cannot satisfy a concrete requirement.
    """
    if required is None:
        return True
    return produced == required


#: Interned id of the "no order" state.  Guaranteed to be ``0`` so backends
#: can test "unsorted" with a plain integer comparison.
UNSORTED = 0


class OrderInterner:
    """Bijective mapping between sort orders and dense small integers.

    Flat enumeration backends cannot afford a :class:`SortOrder` object
    comparison (two attribute loads plus dataclass ``__eq__``) per DP
    candidate.  Interning every order that can appear for a query — scan
    orders of clustered tables plus the endpoint columns of equality
    predicates — turns order bookkeeping into integer arithmetic, and
    compiles :func:`order_satisfies` down to one indexed load in a
    precomputed boolean table (:meth:`satisfies_table`).

    Id ``0`` is always :data:`UNSORTED` (``None``); real orders receive ids
    in first-interned order, so the numbering is deterministic for a fixed
    interning sequence.
    """

    def __init__(self) -> None:
        self._ids: dict[SortOrder | None, int] = {None: UNSORTED}
        self._orders: list[SortOrder | None] = [None]

    def intern(self, order: SortOrder | None) -> int:
        """Id of ``order``, assigning the next dense id on first sight."""
        existing = self._ids.get(order)
        if existing is not None:
            return existing
        assigned = len(self._orders)
        self._ids[order] = assigned
        self._orders.append(order)
        return assigned

    def id_of(self, order: SortOrder | None) -> int:
        """Id of an already-interned order (KeyError for unknown orders)."""
        return self._ids[order]

    def order_of(self, order_id: int) -> SortOrder | None:
        """The :class:`SortOrder` behind an interned id (``None`` for 0)."""
        return self._orders[order_id]

    def __len__(self) -> int:
        return len(self._orders)

    def satisfies_table(self) -> list[list[bool]]:
        """``table[produced_id][required_id]`` ⇔ ``order_satisfies(p, r)``.

        The compiled form of :func:`order_satisfies` over every interned
        order: row ``p`` answers "does a plan sorted as ``p`` satisfy
        requirement ``r``" for all ``r`` with two index operations and no
        branches.  Intern every order *before* compiling; the table does not
        grow with later :meth:`intern` calls.
        """
        n = len(self._orders)
        return [
            [
                order_satisfies(self._orders[produced], self._orders[required])
                for required in range(n)
            ]
            for produced in range(n)
        ]
