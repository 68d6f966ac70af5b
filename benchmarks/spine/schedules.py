"""Seeded schedules for the spine benchmark: a pure function of ``--seed``.

Every workload replays a *fixed schedule* (a fixed list of requests, never a
fixed duration), so the mix of hits, relabellings and misses a run sees
cannot depend on how fast the code under test is.  This module builds those
schedules and nothing else: it imports no serving stack, starts nothing, and
the same arguments always produce byte-identical output — the SHA-256 of
:func:`schedule_digest` is written into every result so two runs can prove
they measured the same requests.

What the seed decides and what it does not (see SPEC.md, "Seeds"):

* serving schedules (``hot_hits``, ``net_herd``, ``spill_tiered``) draw
  their request stream — Zipf rank, feature, worker count, θ, tenant — from
  :func:`repro.bench.traffic.generate_traffic`, and table statistics from
  :class:`~repro.query.generator.SteinbrunnGenerator`, both keyed by the
  seed.  The *structure* of the shape pool (tables and join-graph kind per
  popularity rank) is stratified, not drawn: a hit costs O(plan size), so a
  pool whose hottest rank is 5 tables under one seed and 8 under the next
  would make the across-seed spread a property of the generator instead of
  the code;
* the DP cases come from a constant catalogue (:data:`CATALOGUE_SEED`): DP
  time varies up to 4x with the statistics (parametric 9-table star 41 ms,
  chain 134 ms on the reference box) and ±8 % with a relabelling, so the
  seed draws only the case order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

from repro.bench.traffic import (
    TrafficProfile,
    TrafficRequest,
    generate_traffic,
)
from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    OptimizerSettings,
    PlanSpace,
)
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query

#: θ values parametric requests bind (ISSUE: "θ drawn from five values").
THETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: Worker counts clients ask for; 5–8-table linear queries support all three.
WORKERS = (1, 2, 4)
#: Tables per popularity rank, cycled, so ranks 0–3 already span every size.
SERVING_TABLES = (5, 6, 7, 8)
KINDS = (JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE)
#: Never-seen shapes of ``spill_tiered`` (ISSUE: 5–7 tables).
NOVEL_TABLES = (5, 6, 7)
#: Statistics of the DP cases are a constant of the workload, not of the seed.
CATALOGUE_SEED = 20160901


def permute_query(query: Query, permutation: tuple[int, ...]) -> Query:
    """Relabel table numbers: table ``i`` becomes table ``permutation[i]``."""
    tables: list = [None] * query.n_tables
    for old, new in enumerate(permutation):
        tables[new] = query.tables[old]
    predicates = tuple(
        dataclasses.replace(
            predicate,
            left_table=permutation[predicate.left_table],
            right_table=permutation[predicate.right_table],
        )
        for predicate in query.predicates
    )
    return Query(tables=tuple(tables), predicates=predicates, name=query.name)


def shuffled(n: int, rng: random.Random) -> tuple[int, ...]:
    permutation = list(range(n))
    rng.shuffle(permutation)
    return tuple(permutation)


# ------------------------------------------------------------ serving schedules


def shape_pool(
    seed: int, n_shapes: int, tables: tuple[int, ...] = SERVING_TABLES
) -> list[Query]:
    """The popularity-ranked shapes: stratified structure, seeded statistics."""
    generator = SteinbrunnGenerator(seed, clustered_tables=True)
    return [
        generator.query(
            tables[rank % len(tables)],
            KINDS[(rank // len(tables)) % len(KINDS)],
            name=f"shape-{rank}",
        )
        for rank in range(n_shapes)
    ]


def serving_schedule(
    seed: int,
    n_requests: int,
    n_shapes: int = 32,
    zipf_skew: float = 1.0,
    tables: tuple[int, ...] = SERVING_TABLES,
) -> list[TrafficRequest]:
    """The base schedule of the serving workloads.

    ``generate_traffic`` supplies the seeded stream (rank, feature, workers,
    θ, tenant, arrival offsets); each request's query is then taken from the
    stratified :func:`shape_pool` by its rank.
    """
    stream = generate_traffic(
        TrafficProfile(
            n_requests=n_requests,
            n_unique=n_shapes,
            zipf_skew=zipf_skew,
            workers=WORKERS,
            parametric_thetas=THETAS,
            seed=seed,
        )
    )
    pool = shape_pool(seed, n_shapes, tables)
    return [
        dataclasses.replace(request, query=pool[request.rank]) for request in stream
    ]


def relabel_round(
    schedule: list[TrafficRequest], seed: int, round_index: int, share: float
) -> tuple[list[TrafficRequest], int]:
    """One round's requests: ``share`` of them under a fresh relabelling.

    Regenerated per round because a replayed ``Query`` *value* is a
    ``canonicalize`` memo hit: round 2 of an unchanged schedule would measure
    the memo, not the WL canonicalisation a new client numbering costs.
    Returns the requests and how many were relabelled.
    """
    rng = random.Random(f"relabel:{seed}:{round_index}")
    requests = []
    relabelled = 0
    for request in schedule:
        if rng.random() < share:
            query = request.query
            permutation = shuffled(query.n_tables, rng)
            if permutation != tuple(range(query.n_tables)):
                relabelled += 1
            request = dataclasses.replace(
                request, query=permute_query(query, permutation)
            )
        requests.append(request)
    return requests, relabelled


def novel_round(
    requests: list[TrafficRequest], seed: int, round_index: int, share: float
) -> tuple[list[TrafficRequest], list[int]]:
    """Replace ``share`` of a round with shapes no earlier request had.

    Each novel request is a DP miss, a disk write and, once the LRU moves
    on, a demotion.  Returns the requests and the novel positions.
    """
    rng = random.Random(f"novel:{seed}:{round_index}")
    generator = SteinbrunnGenerator(
        rng.getrandbits(48), clustered_tables=True
    )
    out = list(requests)
    positions = []
    for index, request in enumerate(requests):
        if rng.random() < share:
            query = generator.query(
                rng.choice(NOVEL_TABLES),
                rng.choice(KINDS),
                name=f"novel-{round_index}-{index}",
            )
            out[index] = dataclasses.replace(request, query=query, rank=-1)
            positions.append(index)
    return out, positions


# -------------------------------------------------------------------- DP cases

#: The five DP kernel families ROADMAP item 3 wants to merge, with the
#: backend ``Backend.AUTO`` must resolve each to.
CLASS_SETTINGS: dict[str, tuple[OptimizerSettings, str]] = {
    "plain_linear": (OptimizerSettings(), "vecdp"),
    "plain_bushy": (OptimizerSettings(plan_space=PlanSpace.BUSHY), "vecdp"),
    "multi": (OptimizerSettings(objectives=MULTI_OBJECTIVE), "vecdp"),
    "orders": (OptimizerSettings(consider_orders=True), "fastdp"),
    "parametric": (
        OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
        "fastdp",
    ),
}

_STAR, _CHAIN, _CYCLE = JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE

#: ``mpq_fanout``: per class two join-graph kinds of ≥ 100 ms serial each on
#: the reference box (110–180 ms), so that dispatch to the pool (≈ 1 ms) does
#: not decide the speed-up.  ISSUE 12 indicated 0.5–0.7 s per class; two
#: queries per class is what six rounds of serial + pooled runs leave room
#: for in the driver's time per run.
FANOUT_SHAPES: dict[str, tuple[tuple[int, JoinGraphKind], ...]] = {
    "plain_linear": ((18, _STAR), (18, _CHAIN)),
    "plain_bushy": ((12, _STAR), (12, _CHAIN)),
    "multi": ((9, _STAR), (9, _CHAIN)),
    "orders": ((11, _CHAIN), (11, _CYCLE)),
    "parametric": ((9, _CHAIN), (9, _CYCLE)),
}

#: The serving workloads' *miss probe*: three serving-sized queries per
#: class, one pass per run — what a cold miss of that class costs.
PROBE_SHAPES: dict[str, tuple[tuple[int, JoinGraphKind], ...]] = {
    "plain_linear": ((14, _STAR), (14, _CHAIN), (14, _CYCLE)),
    "plain_bushy": ((9, _STAR), (9, _CHAIN), (9, _CYCLE)),
    "multi": ((7, _STAR), (7, _CHAIN), (7, _CYCLE)),
    "orders": ((8, _STAR), (8, _CHAIN), (8, _CYCLE)),
    "parametric": ((7, _STAR), (7, _CHAIN), (7, _CYCLE)),
}

#: One ≤ 9-table case per class that the legacy oracle can afford.
ORACLE_SHAPES: dict[str, tuple[int, JoinGraphKind]] = {
    "plain_linear": (9, JoinGraphKind.CHAIN),
    "plain_bushy": (8, JoinGraphKind.CHAIN),
    "multi": (7, JoinGraphKind.CHAIN),
    "orders": (8, JoinGraphKind.CHAIN),
    "parametric": (8, JoinGraphKind.CHAIN),
}


@dataclass(frozen=True)
class Case:
    """One DP case: a query of one kernel class."""

    kernel: str
    query: Query
    settings: OptimizerSettings
    expected_backend: str


def dp_cases(
    seed: int, shapes: dict[str, tuple[tuple[int, JoinGraphKind], ...]]
) -> list[Case]:
    """The catalogue's queries, in a seeded order.

    Not relabelled: a relabelled parametric query enumerates its envelopes
    in another order and takes up to ±8 % longer or shorter (measured
    interleaved in one process), which would put the seed into ``plan_ms``.
    """
    generator = SteinbrunnGenerator(CATALOGUE_SEED, clustered_tables=True)
    cases = []
    for kernel, kernel_shapes in shapes.items():
        settings, backend = CLASS_SETTINGS[kernel]
        for n_tables, kind in kernel_shapes:
            query = generator.query(n_tables, kind, name=f"{kernel}-{kind.value}-{n_tables}")
            cases.append(Case(kernel, query, settings, backend))
    random.Random(f"cases:{seed}").shuffle(cases)
    return cases


def oracle_cases() -> list[Case]:
    """The small per-class cases checked against ``Backend.LEGACY``."""
    return dp_cases(0, {kernel: (shape,) for kernel, shape in ORACLE_SHAPES.items()})


# --------------------------------------------------------------------- digests


def _request_key(request: TrafficRequest) -> tuple:
    query = request.query
    return (
        tuple(
            (table.cardinality, table.clustered_on, table.columns)
            for table in query.tables
        ),
        query.predicates,
        request.feature,
        request.n_workers,
        request.theta,
        request.tenant,
    )


def schedule_digest(items: list) -> str:
    """SHA-256 over a schedule's content (requests or DP cases)."""
    digest = hashlib.sha256()
    for item in items:
        if isinstance(item, Case):
            key = (item.kernel, item.query.tables, item.query.predicates)
        else:
            key = _request_key(item)
        digest.update(repr(key).encode())
    return digest.hexdigest()
