"""Join-result cardinality estimation.

Standard System-R style estimation under the independence assumption: the
cardinality of joining a table set is the product of base cardinalities times
the product of the selectivities of all predicates applicable within the set.
Because it depends only on the table *set* (not the join order), results are
memoized per bitmask — the estimator is consulted once per admissible join
result, matching the constant-time cost calculation assumed by Theorem 6.
"""

from __future__ import annotations

from repro.query.query import Query


class CardinalityEstimator:
    """Memoized cardinality estimates for table subsets of one query."""

    def __init__(self, query: Query) -> None:
        self._query = query
        self._cardinalities = [float(table.cardinality) for table in query.tables]
        # (both endpoint bits, selectivity) per predicate, in query order.
        self._predicates = [
            ((1 << p.left_table) | (1 << p.right_table), p.selectivity)
            for p in query.predicates
        ]
        self._cache: dict[int, float] = {
            1 << number: rows for number, rows in enumerate(self._cardinalities)
        }

    @property
    def query(self) -> Query:
        """The query whose table subsets this estimator sizes."""
        return self._query

    def rows(self, mask: int) -> float:
        """Estimated cardinality of the join over the table set ``mask``."""
        if mask == 0:
            raise ValueError("cannot estimate cardinality of the empty table set")
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        rows = 1.0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            rows *= self._cardinalities[low.bit_length() - 1]
        for pair, selectivity in self._predicates:
            if mask & pair == pair:
                rows *= selectivity
        rows = max(rows, 1.0)
        self._cache[mask] = rows
        return rows

    def join_selectivity(self, left_mask: int, right_mask: int) -> float:
        """Combined selectivity of all predicates connecting two table sets.

        Returns 1.0 for a Cartesian product.  Satisfies
        ``rows(l | r) ≈ rows(l) * rows(r) * join_selectivity(l, r)`` as long
        as no predicate is internal to both sides (sides are disjoint here).
        """
        if left_mask & right_mask:
            raise ValueError("join operands must be disjoint table sets")
        selectivity = 1.0
        for predicate in self._query.predicates:
            if predicate.connects(left_mask, right_mask):
                selectivity *= predicate.selectivity
        return selectivity
