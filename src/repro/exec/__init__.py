"""A miniature execution engine for validating plans on synthetic data.

The optimizer only ever *estimates*; this package grounds it: it generates
synthetic tuples consistent with the catalog statistics, executes any plan
tree with real scan/join operator implementations (block-nested-loop, hash,
sort-merge), and checks that every plan for a query produces the identical
result multiset — the semantic-equivalence property the whole plan space
rests on.
"""

from repro.exec.data import Database, generate_database
from repro.exec.engine import execute_plan
from repro.exec.validate import plans_equivalent, result_signature

__all__ = [
    "Database",
    "generate_database",
    "execute_plan",
    "plans_equivalent",
    "result_signature",
]
