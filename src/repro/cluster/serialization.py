"""Serialization for optimizer objects: byte-size model and wire codecs.

Two layers live here:

* a **deterministic byte-size model** (the original role of this module):
  the paper's implementation sends serialized Java objects between master
  and workers, and its network plots measure the resulting byte counts.  We
  model those sizes with Java-serialization-like constants — what matters
  for reproducing the paper's traffic series is that sizes are
  *proportional to object counts*, with realistic constants.  All sizing
  functions return integer byte counts and are pure;

* **actual wire codecs** for the objects the persistent plan-cache tier and
  the out-of-process gateway ship between processes: plan trees (including
  interesting orders and parametric cost vectors — a serialized frontier is
  just a list of plans) and optimizer settings.
  Encoding is **strict standard JSON**: finite floats survive
  bit-identically because Python's ``repr``-based float formatting is
  shortest-round-trip exact, and *non-finite* floats — parametric envelopes
  legitimately use ``±inf`` sentinels — are encoded as the sentinel strings
  ``"inf"``/``"-inf"`` (:func:`float_to_wire`) rather than the bare
  ``Infinity`` token ``json.dumps`` would otherwise emit, which is not JSON
  and which a non-Python peer or strict parser rejects.  ``NaN`` is
  rejected outright: a NaN cardinality or cost is never meaningful, and
  encoding one would only smuggle corruption across a process boundary.
  The codecs are pure functions of their input and never import
  service-layer types — the cache-entry codec composing them lives in
  :mod:`repro.service.tiers`, the service-result codec in
  :mod:`repro.service.net`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any

from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.plans.operators import JoinAlgorithm, ScanAlgorithm
from repro.plans.orders import SortOrder
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.query.query import Query
from repro.util.readers import MISSING, float_from_wire, read, read_enum, read_float, read_int

#: Fixed overhead of any serialized message (stream header, class descriptor).
MESSAGE_HEADER_BYTES = 64

#: Per-table payload: name, cardinality, per-column statistics.
PER_TABLE_BYTES = 48

#: Per-predicate payload: endpoints, columns, selectivity.
PER_PREDICATE_BYTES = 40

#: Task envelope: partition ID and partition count (two longs + object header).
TASK_HEADER_BYTES = 24

#: One serialized plan node: operator tag, table-set mask, cardinality,
#: child references (Java object overhead included).
PLAN_NODE_BYTES = 32

#: Extra bytes per cost-metric value attached to a plan.
PER_METRIC_BYTES = 8

#: One memotable entry shipped by the fine-grained (SMA) algorithm: table-set
#: key, best cost, cardinality, and the two sub-plan references.
MEMO_ENTRY_BYTES = 48

#: Table-set identifier inside an SMA task-assignment message.
SET_ID_BYTES = 8


def query_bytes(query: Query) -> int:
    """Serialized size of a query including its per-query statistics."""
    return (
        MESSAGE_HEADER_BYTES
        + PER_TABLE_BYTES * query.n_tables
        + PER_PREDICATE_BYTES * len(query.predicates)
    )


def task_bytes(query: Query) -> int:
    """Master-to-worker MPQ task: the query plus the partition envelope."""
    return query_bytes(query) + TASK_HEADER_BYTES


def plan_node_count(plan: Plan) -> int:
    """Number of operator nodes in a plan tree (2n - 1 for n tables)."""
    if isinstance(plan, ScanPlan):
        return 1
    assert isinstance(plan, JoinPlan)
    return 1 + plan_node_count(plan.left) + plan_node_count(plan.right)


def plans_bytes(plans: list[Plan]) -> int:
    """Worker-to-master result message: all partition-optimal plans.

    A worker returning an empty result still sends a header-only message.
    """
    if not plans:
        return MESSAGE_HEADER_BYTES
    per_plan = sum(
        PLAN_NODE_BYTES * plan_node_count(plan) + PER_METRIC_BYTES * len(plan.cost)
        for plan in plans
    )
    return MESSAGE_HEADER_BYTES + per_plan


def memo_entries_bytes(n_entries: int) -> int:
    """Size of a memotable delta of ``n_entries`` stored plans (SMA traffic)."""
    if n_entries < 0:
        raise ValueError(f"entry count must be >= 0, got {n_entries}")
    if n_entries == 0:
        return 0
    return MESSAGE_HEADER_BYTES + MEMO_ENTRY_BYTES * n_entries


def sma_task_bytes(n_sets: int) -> int:
    """Size of an SMA per-round task assignment naming ``n_sets`` table sets."""
    if n_sets < 0:
        raise ValueError(f"set count must be >= 0, got {n_sets}")
    return TASK_HEADER_BYTES + SET_ID_BYTES * n_sets


# ----------------------------------------------------------------- wire codecs


def float_to_wire(value: float) -> float | str:
    """Encode one float as a standard-JSON-safe value.

    Finite floats pass through unchanged (and round-trip bit-identically
    through ``json``); ``±inf`` becomes the sentinel string ``"inf"`` /
    ``"-inf"``.  ``NaN`` raises ``ValueError`` — no optimizer quantity
    (cardinality, cost, timing) is meaningfully NaN, so shipping one would
    only propagate corruption.  The decoding rule is
    :func:`repro.util.readers.float_from_wire`.
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError("NaN cannot be encoded on the wire; refusing")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def order_to_wire(order: SortOrder | None) -> list | None:
    """Wire form of a sort order: ``[table, column]``, or ``None``."""
    if order is None:
        return None
    return [order.table, order.column]


def plan_to_wire(plan: Plan) -> dict[str, Any]:
    """JSON-compatible encoding of a plan tree, lossless.

    Unlike :func:`repro.query.io.plan_to_dict` (human-facing explain
    output), this encoding round-trips *exactly*: masks, float
    cardinalities and cost vectors, operator algorithms, and sort orders
    are all preserved, so ``plan_from_wire(plan_to_wire(p)) == p`` for any
    plan of any query class (plain, interesting orders, parametric).
    """
    common: dict[str, Any] = {
        "mask": plan.mask,
        "rows": float_to_wire(plan.rows),
        "cost": [float_to_wire(value) for value in plan.cost],
        "order": order_to_wire(plan.order),
    }
    if isinstance(plan, ScanPlan):
        return {"op": "scan", "table": plan.table, "alg": plan.algorithm.value, **common}
    assert isinstance(plan, JoinPlan)
    return {
        "op": "join",
        "alg": plan.algorithm.value,
        "left": plan_to_wire(plan.left),
        "right": plan_to_wire(plan.right),
        **common,
    }


_SCAN_ALGORITHMS = {member.value: member for member in ScanAlgorithm}
_JOIN_ALGORITHMS = {member.value: member for member in JoinAlgorithm}


class _TableMap(dict):
    """``mapping[old] = new`` as a dict, not the tuple: a table number outside
    the mapping (negative ones included, which a tuple index would wrap) is
    malformed input, refused when looked up."""

    def __missing__(self, table: int) -> int:
        raise ValueError(f"plan names table {table}; the mapping covers {len(self)}")


def _table_map(mapping: tuple[int, ...] | None) -> dict[int, int] | None:
    return None if mapping is None else _TableMap(enumerate(mapping))


def _decode(data: Any, tables: dict[int, int] | None) -> Plan:
    # A well-formed field passes its inline type check and is taken as is;
    # anything else goes through the strict readers, which normalise it
    # (an integral float mask, a sentinel infinity) or raise ValueError.
    if type(data) is not dict:
        raise ValueError(f"a plan node must be a JSON object, got {data!r:.80}")
    isfinite = math.isfinite
    rows = data.get("rows")
    if type(rows) is not float or not isfinite(rows):
        rows = read_float(data, "rows", infinite=True)
    cost = data.get("cost")
    if type(cost) is not list:
        cost = read(data, "cost", list)
    cost = tuple(
        [
            value if type(value) is float and isfinite(value) else float_from_wire(value, "cost")
            for value in cost
        ]
    )
    order = data.get("order", MISSING)
    if order is not None:
        pair = type(order) is list and len(order) == 2
        if not (pair and type(order[0]) is int and type(order[1]) is str):
            order = read(data, "order", list)
            if len(order) != 2:
                raise ValueError(f"field 'order' must be [table, column], got {order!r}")
            order = [read_int(order, 0), read(order, 1, str)]
        order = SortOrder(order[0] if tables is None else tables[order[0]], order[1])
    if tables is None:
        mask = data.get("mask")
        if type(mask) is not int:
            mask = read_int(data, "mask")
    op, algorithm = data.get("op"), data.get("alg")
    if type(algorithm) is not str:
        algorithm = read(data, "alg", str)
    if op == "scan":
        table = data.get("table")
        if type(table) is not int:
            table = read_int(data, "table")
        if tables is not None:
            table = tables[table]
            mask = 1 << table
        algorithm = _SCAN_ALGORITHMS.get(algorithm) or read_enum(data, "alg", ScanAlgorithm)
        return ScanPlan(mask, rows, cost, order, table, algorithm)
    if op == "join":
        left, right = _decode(data.get("left"), tables), _decode(data.get("right"), tables)
        if tables is not None:
            mask = left.mask | right.mask
        algorithm = _JOIN_ALGORITHMS.get(algorithm) or read_enum(data, "alg", JoinAlgorithm)
        return JoinPlan(mask, rows, cost, order, left, right, algorithm)
    raise ValueError(f"unknown plan operator {op!r}")


def plan_from_wire(
    data: dict[str, Any], mapping: tuple[int, ...] | None = None
) -> Plan:
    """Rebuild a plan tree from :func:`plan_to_wire` output.

    With a ``mapping`` (``mapping[old] = new``, a permutation of the
    query's tables) the tree is decoded straight into the new numbering:
    the result equals ``remap_plan(plan_from_wire(data), mapping)`` — a
    scan's mask is its mapped table's bit, a join's the union of its
    operands', an order's table is mapped, and costs, rows and operators
    are copied verbatim — at the price of one tree build, not two.

    Raises ``ValueError`` on malformed input — a persistent cache decoding
    a corrupt record must fail loudly, not serve a half-built plan.  A
    table number outside ``mapping`` is malformed input too.
    """
    return _decode(data, _table_map(mapping))


def plans_to_wire(plans: list[Plan]) -> list[dict[str, Any]]:
    """Encode a plan list — a Pareto or parametric lower-envelope frontier.

    Frontier order is meaningful (backends pin it; golden tests assert it)
    and is preserved verbatim.
    """
    return [plan_to_wire(plan) for plan in plans]


def plans_from_wire(
    data: list[dict[str, Any]], mapping: tuple[int, ...] | None = None
) -> list[Plan]:
    """Inverse of :func:`plans_to_wire`, preserving frontier order.

    ``mapping`` renumbers every plan as in :func:`plan_from_wire`.
    """
    tables = _table_map(mapping)
    return [_decode(item, tables) for item in data]


def settings_to_wire(settings: OptimizerSettings) -> dict[str, Any]:
    """JSON-compatible encoding of an :class:`OptimizerSettings` value.

    The networked gateway ships settings with every request — a shard
    server rebuilds the exact frozen value, so fingerprints computed on
    either side of the wire agree.
    """
    return {
        "plan_space": settings.plan_space.value,
        "objectives": [objective.value for objective in settings.objectives],
        "alpha": float_to_wire(settings.alpha),
        "consider_orders": settings.consider_orders,
        "use_all_join_algorithms": settings.use_all_join_algorithms,
        "parametric": settings.parametric,
        "backend": settings.backend.value,
        # θ is a request parameter, not part of the optimization problem;
        # shipped so a shard server binds the right plan, omitted when
        # unset so pre-parametric peers keep decoding these records.
        **({"theta": settings.theta} if settings.theta is not None else {}),
    }


def settings_from_wire(data: dict[str, Any]) -> OptimizerSettings:
    """Inverse of :func:`settings_to_wire`; raises ``ValueError`` when malformed."""
    return OptimizerSettings(
        plan_space=read_enum(data, "plan_space", PlanSpace),
        objectives=tuple(read(data, "objectives", list, item=partial(read_enum, kind=Objective))),
        alpha=read_float(data, "alpha", infinite=True),
        consider_orders=read(data, "consider_orders", bool),
        use_all_join_algorithms=read(data, "use_all_join_algorithms", bool),
        parametric=read(data, "parametric", bool),
        backend=read_enum(data, "backend", Backend),
        theta=read_float(data, "theta", None),
    )


# ------------------------------------------------------------ cache snapshots

#: Identity of a shipped cache snapshot — deliberately the same format tag
#: as the :class:`~repro.service.tiers.DiskTier` log header, because a
#: snapshot frame carries exactly the log's ``put`` records: what lands on
#: disk and what crosses the wire are one codec, so rebalancing ships warm
#: state a restarted shard could equally have recovered from its own log.
SNAPSHOT_FORMAT = "repro-plan-cache"
SNAPSHOT_VERSION = 1


def snapshot_to_wire(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Wrap cache ``put`` records as a self-identifying snapshot payload.

    ``records`` are :class:`~repro.service.tiers.DiskTier` log records
    (``{"t": "put", "k": <fingerprint>, "entry": <entry wire form>}``), the
    exact lines :meth:`~repro.service.tiers.DiskTier.export_snapshot`
    writes after its header.
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "records": records,
    }


def snapshot_from_wire(data: dict[str, Any]) -> list[dict[str, Any]]:
    """Validate and unwrap :func:`snapshot_to_wire` output.

    Raises ``ValueError`` on a foreign format, an unknown version, or a
    malformed record — an importing shard must reject a bad shipment
    whole rather than merge half of it into its cache.
    """
    if read(data, "format", str) != SNAPSHOT_FORMAT:
        raise ValueError(f"not a plan-cache snapshot (format {data['format']!r})")
    if read_int(data, "version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {data['version']!r} "
            f"(this peer speaks {SNAPSHOT_VERSION})"
        )
    records = read(data, "records", list)
    for record in records:
        if read(record, "t", str) != "put":
            raise ValueError(f"snapshot record is not a put: {record!r:.80}")
        read(record, "k", str)
        read(record, "entry", dict)
    return records
