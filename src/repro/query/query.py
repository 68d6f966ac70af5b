"""The query object: a numbered set of tables plus join predicates.

Following the paper's problem model (Section 3), a query is a set ``Q`` of
tables to be joined.  Tables are numbered consecutively from ``0`` to
``|Q| - 1``; the numbering is shared by master and workers and anchors the
partitioning constraints (``Q_x`` in the paper is ``query.tables[x]`` here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.query.predicates import JoinPredicate
from repro.query.schema import Table
from repro.util.bitset import bits


class JoinGraphKind(enum.Enum):
    """Join graph topologies used in the paper's evaluation (Figure 3)."""

    CHAIN = "chain"
    STAR = "star"
    CYCLE = "cycle"
    CLIQUE = "clique"


@dataclass(frozen=True)
class Query:
    """An SPJ join query over ``n = len(tables)`` numbered tables.

    ``tables[i]`` is the paper's ``Q_i``.  ``predicates`` carry selectivities,
    so a query object is self-contained: it is the single payload the master
    ships to each worker.

    The hash is computed on first use and cached on the instance, because a
    serving tier hashes the same query objects on every request.  The cache
    is never pickled or copied: ``str`` hashes differ from process to
    process, so a hash carried into a worker or shard would miss there.
    """

    tables: tuple[Table, ...]
    predicates: tuple[JoinPredicate, ...] = ()
    name: str = "query"
    _predicate_index: dict[int, tuple[JoinPredicate, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query must contain at least one table")
        n = len(self.tables)
        for predicate in self.predicates:
            for endpoint in (predicate.left_table, predicate.right_table):
                if not 0 <= endpoint < n:
                    raise ValueError(
                        f"predicate references table {endpoint}, query has {n} tables"
                    )
        index: dict[int, list[JoinPredicate]] = {}
        for predicate in self.predicates:
            index.setdefault(predicate.left_table, []).append(predicate)
            index.setdefault(predicate.right_table, []).append(predicate)
        frozen = {table: tuple(preds) for table, preds in index.items()}
        object.__setattr__(self, "_predicate_index", frozen)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.tables, self.predicates, self.name)))
        return self._hash

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_hash"}

    @property
    def n_tables(self) -> int:
        """Number of tables to join (the paper's ``n = |Q|``)."""
        return len(self.tables)

    @property
    def all_tables_mask(self) -> int:
        """Bitmask containing every query table."""
        return (1 << len(self.tables)) - 1

    def predicates_of(self, table_number: int) -> tuple[JoinPredicate, ...]:
        """All predicates with ``table_number`` as an endpoint."""
        return self._predicate_index.get(table_number, ())

    def predicates_between(self, left_mask: int, right_mask: int) -> list[JoinPredicate]:
        """Predicates connecting disjoint table sets ``left_mask``/``right_mask``.

        Empty list means the corresponding join is a Cartesian product.

        No deduplication is needed while scanning the smaller side's
        per-table predicate lists: a predicate appears in two lists only if
        both its endpoints are on the same side — in which case it does not
        connect the operands and is skipped anyway.
        """
        found = []
        smaller = left_mask if left_mask.bit_count() <= right_mask.bit_count() else right_mask
        for table_number in bits(smaller):
            for predicate in self.predicates_of(table_number):
                if predicate.connects(left_mask, right_mask):
                    found.append(predicate)
        return found

    def join_graph_edges(self) -> set[frozenset[int]]:
        """The set of unordered table-number pairs connected by a predicate."""
        return {predicate.table_pair for predicate in self.predicates}

    def is_connected(self) -> bool:
        """Whether the join graph is connected (no forced Cartesian products)."""
        n = self.n_tables
        if n == 1:
            return True
        adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
        for edge in self.join_graph_edges():
            a, b = tuple(edge)
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == n

    def describe(self) -> str:
        """A short human-readable summary, useful in logs and examples."""
        edges = ", ".join(
            f"{self.tables[p.left_table].name}.{p.left_column}="
            f"{self.tables[p.right_table].name}.{p.right_column}"
            for p in self.predicates
        )
        names = ", ".join(table.name for table in self.tables)
        return f"Query({self.name}: tables=[{names}]; predicates=[{edges}])"
