"""Physical operator algorithms.

The paper's implementation "considers all standard operators"; its cost
formulas follow Steinbrunn et al.  We model one scan algorithm and the three
classical join algorithms named in Section 6.1: block-nested-loop join, hash
join, and sort-merge join.

Operator capabilities encoded here:

* hash and sort-merge joins require at least one equality predicate
  connecting their operands (a pure Cartesian product must use nested loops);
* sort-merge join produces output sorted on the (outer) join attribute —
  the source of *interesting orders*;
* hash join and nested-loop join destroy or ignore input order.
"""

from __future__ import annotations

import enum


class ScanAlgorithm(enum.Enum):
    """Access paths for base tables.

    A clustered-index scan is available for tables declaring a clustering
    column; it delivers tuples sorted on that column.
    """

    FULL_SCAN = "full_scan"
    CLUSTERED_INDEX_SCAN = "clustered_index_scan"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class JoinAlgorithm(enum.Enum):
    """The standard join algorithms of the paper's evaluation (Section 6.1)."""

    BLOCK_NESTED_LOOP = "block_nested_loop"
    HASH = "hash"
    SORT_MERGE = "sort_merge"

    @property
    def requires_equi_predicate(self) -> bool:
        """Hash and sort-merge need an equality predicate between operands."""
        return self in (JoinAlgorithm.HASH, JoinAlgorithm.SORT_MERGE)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All join algorithms, in deterministic order (important for reproducibility:
#: ties between equal-cost plans resolve to the first-generated plan).
ALL_JOIN_ALGORITHMS: tuple[JoinAlgorithm, ...] = (
    JoinAlgorithm.BLOCK_NESTED_LOOP,
    JoinAlgorithm.HASH,
    JoinAlgorithm.SORT_MERGE,
)
