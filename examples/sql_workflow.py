"""End-to-end workflow: catalog → SQL → parallel optimization → execution.

A downstream user's path through the library on a TPC-H-flavoured schema:

1. define a catalog (statistics only, no data);
2. write an SPJ join query in SQL;
3. optimize it with MPQ on 16 workers, in the left-deep and in the bushy
   plan space;
4. execute both optimal plans on synthetic tuples to confirm they mean the
   same query (identical results) although their trees differ in cost.

Run:  python examples/sql_workflow.py
"""

from __future__ import annotations

from repro import Catalog, Column, Table, optimize_mpq
from repro.config import OptimizerSettings, PlanSpace
from repro.exec import execute_plan, generate_database, plans_equivalent
from repro.query.sql import parse_sql


def tpch_like_catalog() -> Catalog:
    """A miniature TPC-H-shaped schema, scaled so the demo data joins.

    Cardinalities and key domains keep TPC-H's *ratios* (lineitem is the
    big fact table, nation is tiny) at 1/500 scale, which lets the
    execution step at the end produce visible result rows on a small
    synthetic sample.
    """
    catalog = Catalog()
    catalog.add(
        Table(
            "lineitem",
            1_200,
            (Column("okey", 300), Column("pkey", 40), Column("skey", 10)),
        )
    )
    catalog.add(Table("orders", 300, (Column("okey", 300), Column("ckey", 30))))
    catalog.add(Table("customer", 30, (Column("ckey", 30), Column("nkey", 5))))
    catalog.add(Table("part", 40, (Column("pkey", 40),)))
    catalog.add(Table("supplier", 10, (Column("skey", 10), Column("nkey", 5))))
    catalog.add(Table("nation", 5, (Column("nkey", 5),)))
    return catalog


SQL = """
SELECT * FROM lineitem l, orders o, customer c, part p, supplier s, nation n
WHERE l.okey = o.okey AND o.ckey = c.ckey AND l.pkey = p.pkey
  AND l.skey = s.skey AND s.nkey = n.nkey
"""


def main() -> None:
    catalog = tpch_like_catalog()
    query = parse_sql(SQL, catalog)
    print(f"parsed {query.n_tables}-table join with {len(query.predicates)} predicates")

    report = optimize_mpq(query, n_workers=16)
    names = tuple(table.name for table in query.tables)
    print(f"\nleft-deep optimal plan (MPQ, {report.n_partitions} partitions):")
    print(report.best.pretty(names))
    print(f"estimated cost: {report.best.cost[0]:,.0f}")

    # The bushy space contains every left-deep plan, so its optimum is never dearer.
    bushy = optimize_mpq(
        query, n_workers=16, settings=OptimizerSettings(plan_space=PlanSpace.BUSHY)
    )
    print(f"\nbushy-space optimal plan (MPQ, {bushy.n_partitions} partitions):")
    print(bushy.best.pretty(names))
    print(f"estimated cost: {bushy.best.cost[0]:,.0f}")

    # Both plans must mean the same query: execute them on synthetic tuples.
    database = generate_database(query, seed=7, max_rows=120)
    assert plans_equivalent([report.best, bushy.best], database)
    rows = execute_plan(report.best, database)
    print(f"\nexecuted on synthetic data: {len(rows)} result rows from both plans")
    print("plans are semantically equivalent; the cost model only changes speed.")


if __name__ == "__main__":
    main()
