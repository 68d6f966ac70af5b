"""Join predicates and selectivity estimation.

Queries are SPJ with equality join predicates (as in the paper's evaluation).
Each predicate connects a column of one query table to a column of another
and carries a selectivity estimate.  Selectivities are attached to the
predicate at construction time so that worker nodes receive self-contained
query objects and never need catalog access during optimization — exactly the
"master sends query-specific statistics with the query" mode of Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.schema import Column


def equi_join_selectivity(left: Column, right: Column) -> float:
    """Steinbrunn et al. selectivity of ``left = right``: 1 / max domain size."""
    return 1.0 / max(left.domain_size, right.domain_size)


@dataclass(frozen=True)
class JoinPredicate:
    """An equality predicate ``T_left.left_column = T_right.right_column``.

    ``left_table`` and ``right_table`` are *query table numbers* (positions in
    the query's table tuple), not catalog names: constraints, partitions, and
    plans all speak in table numbers.
    """

    left_table: int
    left_column: str
    right_table: int
    right_column: str
    selectivity: float

    def __post_init__(self) -> None:
        if self.left_table == self.right_table:
            raise ValueError("join predicate must connect two distinct tables")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {self.selectivity}")

    @property
    def table_pair(self) -> frozenset[int]:
        """The unordered pair of table numbers this predicate connects."""
        return frozenset((self.left_table, self.right_table))

    def connects(self, left_mask: int, right_mask: int) -> bool:
        """Return whether this predicate joins the two (disjoint) table sets.

        True iff one endpoint table lies in ``left_mask`` and the other in
        ``right_mask`` — the condition under which hash and sort-merge joins
        become applicable for the corresponding join.
        """
        left_bit = 1 << self.left_table
        right_bit = 1 << self.right_table
        straddles = bool(left_mask & left_bit) and bool(right_mask & right_bit)
        straddles_flipped = bool(left_mask & right_bit) and bool(right_mask & left_bit)
        return straddles or straddles_flipped
