"""Schema objects: columns, tables, and the catalog.

The paper's evaluation generates synthetic catalogs "by the method introduced
by Steinbrunn et al." (VLDBJ 1997): every relation has a cardinality and every
attribute a domain size; the selectivity of an equality join predicate between
two attributes is ``1 / max(domain sizes)``.  These classes hold exactly that
metadata — they are statistics carriers, no tuples are ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Column:
    """An attribute of a table.

    ``domain_size`` is the number of distinct values the attribute can take;
    it drives equi-join selectivity estimation.
    """

    name: str
    domain_size: int

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be >= 1, got {self.domain_size}")


@dataclass(frozen=True)
class Table:
    """A base relation with cardinality statistics.

    ``columns`` maps column name to :class:`Column`.  ``row_bytes`` is the
    width of one tuple and feeds the network/serialization byte model.
    ``clustered_on`` optionally names the column the table is physically
    ordered by: a clustered-index scan then delivers tuples sorted on it,
    giving the optimizer an interesting order at the leaves.

    Like :class:`~repro.query.query.Query`, a table computes its hash on
    first use and caches it: every fresh query over the same tables hashes
    them again.
    """

    name: str
    cardinality: int
    columns: tuple[Column, ...] = ()
    row_bytes: int = 64
    clustered_on: str | None = None

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise ValueError(f"cardinality must be >= 0, got {self.cardinality}")
        if self.row_bytes <= 0:
            raise ValueError(f"row_bytes must be > 0, got {self.row_bytes}")
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        if self.clustered_on is not None and self.clustered_on not in names:
            raise ValueError(
                f"table {self.name!r} is clustered on unknown column "
                f"{self.clustered_on!r}"
            )

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            fields = (self.name, self.cardinality, self.columns, self.row_bytes, self.clustered_on)
            object.__setattr__(self, "_hash", hash(fields))
        return self._hash

    def __getstate__(self) -> dict:
        # Per-process caches, never pickled or copied: the hash (``str``
        # hashes change with the hash seed) and the canonicalizer's signature
        # text (``repro.service.fingerprint``).
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_signature_text")}

    def column(self, name: str) -> Column:
        """Return the column called ``name`` or raise ``KeyError``."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """Return whether this table has a column called ``name``."""
        return any(column.name == name for column in self.columns)


@dataclass
class Catalog:
    """A collection of tables addressable by name.

    The catalog is what a production optimizer would read from the system
    tables; here it is the container from which queries are assembled.
    """

    tables: dict[str, Table] = field(default_factory=dict)

    def add(self, table: Table) -> Table:
        """Register ``table``; raises ``ValueError`` on duplicate names."""
        if table.name in self.tables:
            raise ValueError(f"table {table.name!r} already in catalog")
        self.tables[table.name] = table
        return table

    def get(self, name: str) -> Table:
        """Return the table called ``name`` or raise ``KeyError``."""
        if name not in self.tables:
            raise KeyError(f"catalog has no table {name!r}")
        return self.tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __len__(self) -> int:
        return len(self.tables)
