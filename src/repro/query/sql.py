"""A small SQL frontend: SELECT–FROM–WHERE join queries over a catalog.

Parses the SPJ fragment the paper's problem model covers::

    SELECT * FROM lineitem l, orders o, customer c
    WHERE l.okey = o.okey AND o.ckey = c.ckey

Supported: a star select list, comma-separated FROM items with optional
aliases, and a conjunction of equality join predicates between attributes of
two different tables.  Anything else raises :class:`SqlError` with the
offending position — this is a query-optimizer front door, not a full SQL
implementation (selections/aggregates would be handled before/after join
ordering in a real system, as the paper notes in Section 4.1).

Selectivities default to the Steinbrunn estimate from the catalog's domain
sizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.query.predicates import JoinPredicate, equi_join_selectivity
from repro.query.query import Query
from repro.query.schema import Catalog


class SqlError(ValueError):
    """Raised for queries outside the supported SPJ fragment."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<star>\*)
  | (?P<dot>\.)
  | (?P<comma>,)
  | (?P<eq>=)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(sql: str) -> list[_Token]:
    tokens = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlError(f"unexpected character {sql[position]!r} at {position}")
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind=kind, text=match.group(), position=position))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str) -> None:
        self._tokens = _tokenize(sql)
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self, expected_kind: str | None = None) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlError("unexpected end of query")
        if expected_kind is not None and token.kind != expected_kind:
            raise SqlError(
                f"expected {expected_kind} at position {token.position}, "
                f"found {token.text!r}"
            )
        self._index += 1
        return token

    def _keyword(self, word: str) -> None:
        token = self._next("ident")
        if token.text.upper() != word:
            raise SqlError(
                f"expected {word} at position {token.position}, found {token.text!r}"
            )

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return (
            token is not None
            and token.kind == "ident"
            and token.text.upper() == word
        )

    def parse(self) -> tuple[list[tuple[str, str]], list[tuple[str, str, str, str]]]:
        """Returns (from items as (table, alias), predicates as column refs)."""
        self._keyword("SELECT")
        self._next("star")
        self._keyword("FROM")
        from_items = [self._from_item()]
        while self._peek() is not None and self._peek().kind == "comma":
            self._next("comma")
            from_items.append(self._from_item())
        predicates: list[tuple[str, str, str, str]] = []
        if self._peek() is not None:
            self._keyword("WHERE")
            predicates.append(self._predicate())
            while self._at_keyword("AND"):
                self._keyword("AND")
                predicates.append(self._predicate())
        trailing = self._peek()
        if trailing is not None:
            raise SqlError(
                f"unsupported syntax at position {trailing.position}: "
                f"{trailing.text!r}"
            )
        return from_items, predicates

    def _from_item(self) -> tuple[str, str]:
        table = self._next("ident").text
        token = self._peek()
        if token is not None and token.kind == "ident" and token.text.upper() not in (
            "WHERE",
        ):
            alias = self._next("ident").text
            return table, alias
        return table, table

    def _column_ref(self) -> tuple[str, str]:
        alias = self._next("ident").text
        self._next("dot")
        column = self._next("ident").text
        return alias, column

    def _predicate(self) -> tuple[str, str, str, str]:
        left_alias, left_column = self._column_ref()
        self._next("eq")
        right_alias, right_column = self._column_ref()
        return left_alias, left_column, right_alias, right_column


def parse_sql(sql: str, catalog: Catalog) -> Query:
    """Parse an SPJ join query against ``catalog`` into a :class:`Query`.

    Table numbering follows FROM-clause order (the shared numbering the
    partitioning constraints rely on).
    """
    from_items, raw_predicates = _Parser(sql).parse()
    alias_to_number: dict[str, int] = {}
    tables = []
    for number, (table_name, alias) in enumerate(from_items):
        if table_name not in catalog:
            raise SqlError(f"unknown table {table_name!r}")
        if alias in alias_to_number:
            raise SqlError(f"duplicate table alias {alias!r}")
        alias_to_number[alias] = number
        tables.append(catalog.get(table_name))

    predicates = []
    for left_alias, left_column, right_alias, right_column in raw_predicates:
        for alias in (left_alias, right_alias):
            if alias not in alias_to_number:
                raise SqlError(f"unknown table alias {alias!r}")
        left_table = alias_to_number[left_alias]
        right_table = alias_to_number[right_alias]
        if left_table == right_table:
            raise SqlError(
                f"predicate {left_alias}.{left_column} = "
                f"{right_alias}.{right_column} does not join two tables"
            )
        for table_number, column in (
            (left_table, left_column),
            (right_table, right_column),
        ):
            if not tables[table_number].has_column(column):
                raise SqlError(
                    f"table {tables[table_number].name!r} has no column "
                    f"{column!r}"
                )
        selectivity = equi_join_selectivity(
            tables[left_table].column(left_column),
            tables[right_table].column(right_column),
        )
        predicates.append(
            JoinPredicate(
                left_table=left_table,
                left_column=left_column,
                right_table=right_table,
                right_column=right_column,
                selectivity=selectivity,
            )
        )
    return Query(
        tables=tuple(tables),
        predicates=tuple(predicates),
        name="sql-query",
    )
