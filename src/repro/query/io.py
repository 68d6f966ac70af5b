"""JSON (de)serialization for queries and plan explain output.

Lets users define queries in files and drive the optimizer from the command
line (``python -m repro optimize query.json``), and makes optimizer output
machine-readable.  The schema is deliberately plain:

.. code-block:: json

    {
      "name": "sales-star",
      "tables": [
        {"name": "sales", "cardinality": 80000,
         "columns": [{"name": "fk0", "domain_size": 10000}]}
      ],
      "predicates": [
        {"left_table": 0, "left_column": "fk0",
         "right_table": 1, "right_column": "id", "selectivity": 0.0001}
      ]
    }

``selectivity`` may be omitted, in which case it defaults to the Steinbrunn
estimate ``1 / max(domain sizes)``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.query.predicates import JoinPredicate, equi_join_selectivity
from repro.query.query import Query
from repro.query.schema import Catalog, Column, Table
from repro.util.readers import read, read_float, read_int


def _table_to_dict(table: Table) -> dict[str, Any]:
    record: dict[str, Any] = {
        "name": table.name,
        "cardinality": table.cardinality,
        "row_bytes": table.row_bytes,
        "columns": [
            {"name": column.name, "domain_size": column.domain_size}
            for column in table.columns
        ],
    }
    # Physical clustering changes which leaf orders the optimizer sees, so
    # dropping it would silently change plans (and fingerprints) for any
    # query crossing the wire.  Omitted entirely for unclustered tables to
    # keep hand-written query files plain.
    if table.clustered_on is not None:
        record["clustered_on"] = table.clustered_on
    return record


def query_to_dict(query: Query) -> dict[str, Any]:
    """Plain-JSON representation of a query."""
    return {
        "name": query.name,
        "tables": [_table_to_dict(table) for table in query.tables],
        "predicates": [
            {
                "left_table": predicate.left_table,
                "left_column": predicate.left_column,
                "right_table": predicate.right_table,
                "right_column": predicate.right_column,
                "selectivity": predicate.selectivity,
            }
            for predicate in query.predicates
        ],
    }


def query_from_dict(data: dict[str, Any]) -> Query:
    """Build a query from its JSON representation.

    Raises ``ValueError`` with a readable message on malformed input.
    """
    try:
        raw_tables = read(data, "tables", list)
        raw_predicates = read(data, "predicates", list, [])
    except ValueError as error:
        raise ValueError(f"malformed query: {error}") from None
    tables = tuple(_table_from_dict(raw) for raw in raw_tables)
    predicates = []
    for raw in raw_predicates:
        try:
            predicates.append(_predicate_from_dict(raw, tables))
        except ValueError as error:
            raise ValueError(f"malformed predicate definition: {error}") from None
    return Query(tables=tables, predicates=tuple(predicates), name=read(data, "name", str, "query"))


def _predicate_from_dict(raw: dict[str, Any], tables: tuple[Table, ...]) -> JoinPredicate:
    endpoints = []
    for side in ("left", "right"):
        index = read_int(raw, f"{side}_table")
        if not 0 <= index < len(tables):
            raise ValueError(f"predicate references table {index}, query has {len(tables)} tables")
        # Membership is the check: a name that is not a string matches no column.
        name = raw.get(f"{side}_column")
        if not tables[index].has_column(name):
            raise ValueError(f"table {tables[index].name!r} has no column {name!r}")
        endpoints.append((index, tables[index].column(name)))
    (left_table, left_column), (right_table, right_column) = endpoints
    selectivity = read_float(raw, "selectivity", None)
    if selectivity is None:
        selectivity = equi_join_selectivity(left_column, right_column)
    return JoinPredicate(left_table, left_column.name, right_table, right_column.name, selectivity)


def save_query(query: Query, path: str | Path) -> None:
    """Write a query to a JSON file."""
    Path(path).write_text(json.dumps(query_to_dict(query), indent=2) + "\n")


def load_query(path: str | Path) -> Query:
    """Read a query from a JSON file."""
    return query_from_dict(json.loads(Path(path).read_text()))


def _table_from_dict(raw: dict[str, Any]) -> Table:
    try:
        return Table(
            name=read(raw, "name", str),
            cardinality=read_int(raw, "cardinality"),
            row_bytes=read_int(raw, "row_bytes", 64),
            columns=tuple(
                Column(name=read(col, "name", str), domain_size=read_int(col, "domain_size"))
                for col in read(raw, "columns", list, [])
            ),
            clustered_on=read(raw, "clustered_on", str, None),
        )
    except ValueError as error:
        raise ValueError(f"malformed table definition: {error}") from None


def catalog_to_dict(catalog: Catalog) -> dict[str, Any]:
    """Plain-JSON representation of a catalog (for the SQL frontend)."""
    return {"tables": [_table_to_dict(table) for table in catalog.tables.values()]}


def catalog_from_dict(data: dict[str, Any]) -> Catalog:
    """Build a catalog from its JSON representation.

    Raises ``ValueError`` with a readable message on malformed input.
    """
    catalog = Catalog()
    for raw in read(data, "tables", list, []):
        catalog.add(_table_from_dict(raw))
    return catalog


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog to a JSON file."""
    Path(path).write_text(json.dumps(catalog_to_dict(catalog), indent=2) + "\n")


def load_catalog(path: str | Path) -> Catalog:
    """Read a catalog from a JSON file."""
    return catalog_from_dict(json.loads(Path(path).read_text()))


def plan_to_dict(plan: Plan, table_names: tuple[str, ...] | None = None) -> dict[str, Any]:
    """Plain-JSON representation of a plan tree (for EXPLAIN-style output)."""
    common = {
        "rows": plan.rows,
        "cost": list(plan.cost),
        "order": str(plan.order) if plan.order else None,
    }
    if isinstance(plan, ScanPlan):
        name = table_names[plan.table] if table_names else f"T{plan.table}"
        return {
            "operator": "scan",
            "algorithm": plan.algorithm.value,
            "table": name,
            **common,
        }
    assert isinstance(plan, JoinPlan)
    return {
        "operator": "join",
        "algorithm": plan.algorithm.value,
        **common,
        "outer": plan_to_dict(plan.left, table_names),
        "inner": plan_to_dict(plan.right, table_names),
    }
