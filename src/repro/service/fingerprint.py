"""Query canonicalization and fingerprinting for the optimizer service.

A service that caches optimization results needs a cache key that is stable
under the *accidents* of query construction: the order in which relations are
listed (their table numbers) carries no semantics, so two queries that differ
only by a relation permutation must map to the same key.  Table and query
*names* are likewise excluded — they are aliases, not statistics — while
everything the optimizer actually consumes (cardinalities, row widths,
column domains, clustering, predicate endpoints and selectivities, and the
:class:`~repro.config.OptimizerSettings`) is hashed in.

Canonicalization uses color refinement (1-WL) over the join graph seeded
with per-table statistic signatures, followed by individualization on
remaining symmetric classes; the canonical form is the lexicographically
smallest encoding over all explored branches.  Colors are dense integer
*ranks* — a table's position among the sorted distinct signatures, then
among the sorted distinct ``(color, neighborhood)`` keys of each round —
never hashes: ranks order the classes, so a coloring that has become
discrete already is the canonical numbering, and they come out of
``sorted``, so they are identical in every process.  For the symmetric
cases where the search could explode, branch exploration is capped —
capping can only cost cache *hits* (two labelings of a pathologically
symmetric query may canonicalize differently), never correctness: a cache
hit requires equal canonical encodings, and equal encodings certify that
both queries are isomorphic to the same canonical query, which is exactly
what plan remapping (:mod:`repro.service.remap`) relies on.

The fingerprint is the SHA-256 of the encoding's own SHA-256 (taken once,
when the :class:`CanonicalForm` is built) followed by the resolved settings
signature and partition count.  That settings half is built once per
``(settings, table count, workers)`` and memoized, so a request hashes
bytes it did not have to rebuild; the digest is the same either way.  A
fingerprint is only meaningful to the version that derived it: keys
written by a version with another numbering or digest construction are
unreachable, never wrong, because an entry's plans are stored in the
numbering of the encoding its key hashes.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from repro.config import OptimizerSettings
from repro.core.constraints import usable_partitions
from repro.core.worker import resolve_backend
from repro.query.query import Query
from repro.query.schema import Table

#: Maximum individualization branches explored before the canonical search
#: settles for the best encoding found so far.  Only near-fully-symmetric
#: queries (identical stats on many clique-connected tables) ever reach it.
MAX_BRANCHES = 256


def _table_signature(table: Table) -> tuple:
    """Everything the optimizer reads from a table, minus its name."""
    columns = tuple(sorted((column.name, column.domain_size) for column in table.columns))
    return (table.cardinality, table.row_bytes, table.clustered_on, columns)


def _signature_text(table: Table) -> str:
    """``repr`` of the table's :func:`_table_signature`, made once per object.

    The text is kept on the table beside its cached hash, and like it never
    crosses a pickle or a copy (``Table.__getstate__``).  A fresh
    relabelling reorders the Table objects its shape already carries, so it
    reads the text instead of rebuilding it (≈ 4 µs a table).
    """
    if "_signature_text" not in table.__dict__:
        object.__setattr__(table, "_signature_text", repr(_table_signature(table)))
    return table._signature_text


#: ``repr`` of a selectivity, made once per value: float ``repr`` is the
#: dearest step of :func:`_encode`.  ``typed`` keeps ``1`` and ``1.0``, equal
#: but rendered apart, in separate entries; the bound caps the memo's memory.
_selectivity_text = lru_cache(maxsize=1024, typed=True)(repr)


def _settings_signature(settings: OptimizerSettings) -> tuple:
    # θ is never read: it parameterizes the lookup into a cached envelope,
    # never the optimization problem, so every θ of one settings value
    # shares one signature (hence one fingerprint and one cache entry).
    # The backend is part of the signature even though all backends return
    # equivalent frontiers: the cached entry also carries run statistics
    # (the provenance's measured worker stats), which are backend-specific,
    # and keeping the key exact makes backend A/B comparisons through the
    # service meaningful.
    # AUTO is hashed as the backend it *resolves* to, so a request with the
    # default AUTO and one explicitly naming the same core share an entry —
    # the execution, not the spelling, keys the cache.
    return (
        settings.plan_space.value,
        tuple(objective.value for objective in settings.objectives),
        settings.alpha,
        settings.consider_orders,
        settings.use_all_join_algorithms,
        settings.parametric,
        resolve_backend(settings).value,
    )


def settings_signature(settings: OptimizerSettings) -> str:
    """Stable string form of the *resolved* settings signature.

    This is what cache-entry provenance records store: it embeds the backend
    that ``Backend.AUTO`` resolved to at creation time, so an entry remains
    attributable — and selectively invalidatable — even after a code change
    moves what AUTO resolves to.  The string is ``repr`` of the same tuple the
    fingerprint hashes, so provenance and fingerprints can never disagree
    about what the settings were.
    """
    return repr(_settings_signature(settings))


def _adjacency(query: Query) -> list[list[tuple[tuple, int]]]:
    """Per-table incident predicate signatures: ``[table] -> [(edge_sig, other)]``.

    The edge signature is directional (local column first) so that a table's
    view of a predicate distinguishes its own endpoint from the neighbor's.
    """
    incident: list[list[tuple[tuple, int]]] = [[] for __ in query.tables]
    for predicate in query.predicates:
        left_sig = (predicate.selectivity, predicate.left_column, predicate.right_column)
        right_sig = (predicate.selectivity, predicate.right_column, predicate.left_column)
        incident[predicate.left_table].append((left_sig, predicate.right_table))
        incident[predicate.right_table].append((right_sig, predicate.left_table))
    return incident


def _ranks(keys: list) -> list[int]:
    """Each key's dense rank among the sorted distinct keys.

    Ranks come from ``sorted`` — never from ``set`` / ``dict`` iteration
    order — so they are the same in every process and under every
    ``PYTHONHASHSEED``.
    """
    rank = {key: position for position, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _refine(colors: list[int], incident: list[list[tuple[tuple, int]]]) -> list[int]:
    """1-WL color refinement of dense rank colors to a fixed point.

    A round recolors every node with the rank of ``(color, sorted incident
    (edge signature, neighbor color))``.  The old color leads the tuple, so
    a round can only split classes and keeps their relative order: ranks
    stay dense, and a round that splits nothing reproduces its input
    exactly, which is the fixed-point test.  A discrete coloring (``n``
    classes) cannot split further, so it costs zero rounds — the case for
    every query whose table statistics are pairwise distinct.
    """
    while max(colors) + 1 < len(colors):
        refined = _ranks(
            [
                (color, tuple(sorted([(edge_sig, colors[other]) for edge_sig, other in edges])))
                for color, edges in zip(colors, incident)
            ]
        )
        if refined == colors:
            break
        colors = refined
    return colors


def _encode(signatures: list[str], query: Query, numbering: list[int]) -> str:
    """Serialize the query under ``numbering`` (original -> canonical).

    ``signatures`` are the tables' :func:`_signature_text` texts.  The
    predicates read as ``repr(tuple(sorted(predicates)))``, one-element
    tuple's trailing comma included, with each selectivity's text taken from
    :func:`_selectivity_text` instead of rendered again.
    """
    tables = [""] * len(numbering)
    for signature, canonical in zip(signatures, numbering):
        tables[canonical] = signature
    predicates = []
    for predicate in query.predicates:
        a = numbering[predicate.left_table]
        b = numbering[predicate.right_table]
        if a <= b:
            predicates.append((a, predicate.left_column, b, predicate.right_column, predicate.selectivity))
        else:
            predicates.append((b, predicate.right_column, a, predicate.left_column, predicate.selectivity))
    rendered = ", ".join(
        f"({a}, {x!r}, {b}, {y!r}, {_selectivity_text(s)})" for a, x, b, y, s in sorted(predicates)
    )
    return f"(({', '.join(tables)}), ({rendered}{',' if len(predicates) == 1 else ''}))"


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """A query's canonical serialization plus the numbering that produced it.

    ``numbering[original_table_number]`` is the table's canonical number.
    Two queries are join-isomorphic (up to names) iff their ``encoding``
    strings are equal, and composing one numbering with the inverse of the
    other maps plans between them (see :func:`repro.service.remap.remap_plan`).

    ``digest`` is the SHA-256 of ``encoding``, taken once here so that
    :func:`fingerprint_canonical` never re-reads the (0.4-1 kB) encoding.
    It is an eager slot, not a lazily attached attribute: a serving tier
    keeps thousands of forms alive and a per-instance ``__dict__`` is
    what they would cost.
    """

    encoding: str
    numbering: tuple[int, ...]
    digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", hashlib.sha256(self.encoding.encode()).digest())


#: Memoized canonical forms, weakly keyed by the query value.  A serving
#: tier canonicalizes the same hot query objects on every request.  On the
#: spine's 5-8-table shape pool (2-vCPU Xeon, Python 3.11, minimum of 7) a
#: memo probe is ≈ 0.5 µs (a query computes its hash once and caches it),
#: a fresh relabelling of known Table objects ≈ 14 µs, and a query of new
#: Table objects, as a JSON client sends, ≈ 41 µs.  Keying by value means
#: equal-content query objects share one entry, and weak keys let retired
#: queries be collected.
#: Safe because canonicalization is a pure function of query content and
#: queries are immutable.
_canonical_memo: "weakref.WeakKeyDictionary[Query, CanonicalForm]" = (
    weakref.WeakKeyDictionary()
)


def canonicalize(query: Query) -> CanonicalForm:
    """Compute the relation-permutation-invariant canonical form of ``query``.

    Memoized on the query value (weakly, so the memo never extends a
    query's lifetime); an unhashable query — not produced by this package,
    but possible for hand-built table objects — just skips the memo.  The
    search itself is :func:`_canonicalize`.
    """
    try:
        cached = _canonical_memo.get(query)
    except TypeError:
        return _canonicalize(query)
    if cached is None:
        cached = _canonical_memo[query] = _canonicalize(query)
    return cached


def _canonicalize(query: Query) -> CanonicalForm:
    """Individualization-refinement search for the smallest encoding.

    Colors are dense integer ranks.  The seed is each table's rank among
    the sorted distinct signature texts (text, because a signature holds
    ``clustered_on: str | None`` and would not sort as a tuple).  The search
    is depth first over an explicit stack of colorings still to refine,
    not a recursive closure: a closure that calls itself is a reference
    cycle, and every call would strand its adjacency lists until a full
    collection — which a latency-sensitive server postpones.  The adjacency
    is built only when a coloring needs refining: a query whose table
    statistics are pairwise distinct has a discrete seed and never does.
    """
    signatures = [_signature_text(table) for table in query.tables]
    incident = None
    best: tuple[str, list[int]] | None = None
    leaves = 0
    stack = [_ranks(signatures)]
    while stack and leaves < MAX_BRANCHES:
        colors = stack.pop()
        if max(colors) + 1 < len(colors):
            colors = _refine(colors, incident := incident or _adjacency(query))
        if max(colors) + 1 == len(colors):
            # Discrete: n singleton classes of dense ranks *are* the numbering.
            leaves += 1
            encoding = _encode(signatures, query, colors)
            if best is None or encoding < best[0]:
                best = (encoding, colors)
            continue
        # The target cell must be chosen by a labeling-invariant key (class
        # size, then the class's color — never original table numbers), or
        # two labelings of the same query would explore different search
        # trees and could settle on different canonical forms.
        target = min((size, color) for color, size in Counter(colors).items() if size > 1)[1]
        # Individualize each member in turn: it keeps ``target`` while its
        # class-mates and every color above move up by one, so ranks stay
        # dense and ordered.  Pushed in reverse to pop in table order.
        shifted = [color + (color >= target) for color in colors]
        for node in reversed(range(len(colors))):
            if colors[node] == target:
                stack.append(shifted[:node] + [target] + shifted[node + 1 :])
    assert best is not None
    return CanonicalForm(best[0], tuple(best[1]))


def fingerprint_canonical(
    canonical: CanonicalForm,
    settings: OptimizerSettings,
    n_workers: int | None = None,
) -> str:
    """Digest a precomputed canonical form (lets callers canonicalize once).

    ``n_workers`` is hashed as the partition count the run would actually
    use (:func:`~repro.core.constraints.usable_partitions`), not the raw
    request: requests for 8, 9, and 12 workers on a query that clamps to 8
    partitions produce identical runs and must share one cache entry.  The
    canonical numbering carries the table count, so the resolution needs no
    extra arguments.
    """
    payload = _settings_payload(settings, len(canonical.numbering), n_workers)
    return hashlib.sha256(canonical.digest + payload).hexdigest()


# Memoized: the serving hot path digests a handful of distinct (settings,
# table count, workers) triples, and rebuilding the payload costs more than
# hashing it.  The table count is part of the key because the resolved
# partition count depends on it.  A θ-bound settings value is its own key,
# and the bound caps how many of those stay resident.
@lru_cache(maxsize=1024)
def _settings_payload(settings: OptimizerSettings, n_tables: int, n_workers: int | None) -> bytes:
    resolved = (
        None if n_workers is None else usable_partitions(n_tables, n_workers, settings.plan_space)
    )
    return repr((_settings_signature(settings), resolved)).encode()


def fingerprint(
    query: Query,
    settings: OptimizerSettings,
    n_workers: int | None = None,
) -> str:
    """Hex digest identifying ``(query, settings[, parallelism])`` up to relabeling.

    ``n_workers`` participates as its *resolved* partition count so that
    cached per-run accounting (partition count, measured worker stats) stays
    faithful to the request, while requests whose worker counts clamp to the
    same parallelism share one entry instead of duplicating runs and memory.
    """
    return fingerprint_canonical(canonicalize(query), settings, n_workers)
