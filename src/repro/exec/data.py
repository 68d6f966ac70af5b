"""Synthetic tuple generation consistent with catalog statistics.

Tables are materialized as lists of rows; a row is a dict mapping column
name to an integer value drawn uniformly from ``[0, domain_size)``.  Under
uniform draws the expected selectivity of an equality join between columns
with domain sizes ``d1 <= d2`` is ``1/d2`` — exactly the Steinbrunn estimate
the optimizer uses — so estimated and empirical cardinalities agree in
expectation (the independence assumption holds by construction).

Row counts can be scaled down (``max_rows``) so that plans over tables with
cardinalities in the tens of thousands stay executable in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.query.query import Query

Row = dict[str, int]


@dataclass
class Database:
    """Materialized tables for one query, indexed by query table number."""

    query: Query
    #: ``rows[t]`` holds the tuples of query table number ``t``.
    rows: list[list[Row]]

    def table_rows(self, table_number: int) -> list[Row]:
        """Tuples of table ``table_number``."""
        return self.rows[table_number]


def generate_database(query: Query, seed: int = 0, max_rows: int = 50) -> Database:
    """Materialize synthetic tuples for every table of ``query``.

    Each table gets ``min(cardinality, max_rows)`` rows; every column's
    values are uniform over its domain.  Deterministic in ``seed``.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    rng = random.Random(seed)
    tables: list[list[Row]] = []
    for table in query.tables:
        n_rows = min(table.cardinality, max_rows)
        rows = [
            {
                column.name: rng.randrange(column.domain_size)
                for column in table.columns
            }
            for _ in range(n_rows)
        ]
        tables.append(rows)
    return Database(query=query, rows=tables)
