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
  just a list of plans, each plan a flat list of post-order node rows) and
  optimizer settings.
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
from repro.plans.plan import JoinPlan, Plan, ScanPlan, plan_join_count
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


def plans_bytes(plans: list[Plan]) -> int:
    """Worker-to-master result message: all partition-optimal plans.

    A worker returning an empty result still sends a header-only message.
    A plan of ``j`` joins has ``2j + 1`` operator nodes.
    """
    if not plans:
        return MESSAGE_HEADER_BYTES
    per_plan = sum(
        PLAN_NODE_BYTES * (2 * plan_join_count(plan) + 1) + PER_METRIC_BYTES * len(plan.cost)
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


def plan_to_wire(plan: Plan) -> list[list]:
    """JSON-compatible encoding of a plan tree, lossless: flat post-order rows.

    One array per node, children before their parent: a scan is ``[0,
    table, alg, rows, cost, order]`` and a join ``[1, alg, rows, cost,
    order]``, whose operands are the two subtrees just before it.  ``order``
    is ``[table, column]`` or ``null``.  Masks are not written: a scan's is
    its table's bit and a join's the union of its operands', as the cost
    model builds them.  Unlike :func:`repro.query.io.plan_to_dict`
    (human-facing explain output), this encoding round-trips *exactly*:
    ``plan_from_wire(plan_to_wire(p)) == p`` for any plan of any query class
    (plain, interesting orders, parametric).
    """
    rows: list[list] = []
    _rows_into(plan, rows)
    return rows


def _rows_into(plan: Plan, rows: list[list]) -> None:
    order = plan.order
    if order is not None:
        order = [order.table, order.column]
    tail = [float_to_wire(plan.rows), [float_to_wire(value) for value in plan.cost], order]
    if type(plan) is ScanPlan:
        rows.append([0, plan.table, plan.algorithm.value, *tail])
        return
    _rows_into(plan.left, rows)
    _rows_into(plan.right, rows)
    rows.append([1, plan.algorithm.value, *tail])


_SCAN_ALGORITHMS = {member.value: member for member in ScanAlgorithm}
_JOIN_ALGORITHMS = {member.value: member for member in JoinAlgorithm}

#: Table numbers a plan decoded without a mapping may name: a mask has one
#: bit per table, and no DP here gets near 64 tables.  The bound keeps a
#: hostile table number from building a mask of a billion bits.
_TABLE_LIMIT = 64


class _TableMap(dict):
    """``mapping[old] = new`` as a dict, not the tuple: a table number outside
    the mapping (negative ones included, which a tuple index would wrap) is
    malformed input, refused when looked up."""

    def __missing__(self, table: int) -> int:
        raise ValueError(f"plan names table {table}; the mapping covers {len(self)}")


def _table_map(mapping: tuple[int, ...] | None) -> dict[int, int] | None:
    return None if mapping is None else _TableMap(enumerate(mapping))


def _decode_rows(data: list, tables: dict[int, int] | None) -> Plan:
    # Each field passes an inline type check or goes through the strict
    # readers, which normalise it (an integral float, a sentinel infinity)
    # or raise ValueError.  A row ends in rows, cost, order either way.
    isfinite = math.isfinite
    stack: list[Plan] = []
    for row in data:
        size = len(row) if type(row) is list else 0
        if size == 6:
            tag, table, algorithm, rows, cost, order = row
        elif size == 5:
            tag, algorithm, rows, cost, order = row
        else:
            tag = None
        if type(tag) is not int and tag is not None:
            tag = read_int(row, 0)
        if tag != 6 - size:  # a scan row is tagged 0, a join row 1, any other row refused
            raise ValueError(
                "a plan row must be [0, table, alg, rows, cost, order] or "
                f"[1, alg, rows, cost, order], got {row!r:.80}"
            )
        if type(rows) is not float or not isfinite(rows):
            rows = read_float(row, size - 3, infinite=True)
        if type(cost) is not list:
            cost = read(row, size - 2, list)
        for value in cost:
            if type(value) is not float or not isfinite(value):
                cost = [float_from_wire(value, "cost") for value in cost]
                break
        cost = tuple(cost)
        if order is not None:
            pair = type(order) is list and len(order) == 2
            if not (pair and type(order[0]) is int and type(order[1]) is str):
                order = read(row, size - 1, list)
                if len(order) != 2:
                    raise ValueError(f"a plan's order must be [table, column], got {order!r}")
                order = [read_int(order, 0), read(order, 1, str)]
            order = SortOrder(order[0] if tables is None else tables[order[0]], order[1])
        if size == 6:
            if type(table) is not int:
                table = read_int(row, 1)
            if tables is not None:
                table = tables[table]
            elif not 0 <= table < _TABLE_LIMIT:
                raise ValueError(f"plan names table {table}, outside [0, {_TABLE_LIMIT})")
            algorithm = type(algorithm) is str and _SCAN_ALGORITHMS.get(algorithm)
            algorithm = algorithm or read_enum(row, 2, ScanAlgorithm)
            stack.append(ScanPlan(1 << table, rows, cost, order, table, algorithm))
            continue
        if len(stack) < 2:
            raise ValueError(f"plan join row {row!r:.80} has fewer than two operands before it")
        right, left = stack.pop(), stack.pop()
        if left.mask & right.mask:
            raise ValueError(f"plan join row {row!r:.80} joins operands that share a table")
        algorithm = type(algorithm) is str and _JOIN_ALGORITHMS.get(algorithm)
        algorithm = algorithm or read_enum(row, 1, JoinAlgorithm)
        stack.append(JoinPlan(left.mask | right.mask, rows, cost, order, left, right, algorithm))
    if len(stack) != 1:
        raise ValueError(f"plan rows must build one tree, they build {len(stack)}")
    return stack[0]


def _nested_rows(node: Any, rows: list, masks: bool) -> int:
    # The nested form older versions wrote: one object per node, children
    # inside, each with its mask.  Read as the flat rows it stands for; a
    # mask is checked against its tables unless a mapping replaces it.
    # Returns the node's mask as its tables make it (0 for a bad table,
    # which the rows decoder then refuses).
    if type(node) is not dict:
        raise ValueError(f"a plan node must be a JSON object, got {node!r:.80}")
    get = node.get
    if get("op") == "join":
        mask = _nested_rows(get("left"), rows, masks) | _nested_rows(get("right"), rows, masks)
        rows.append([1, get("alg"), get("rows"), get("cost"), get("order", MISSING)])
    elif get("op") == "scan":
        table = get("table")
        mask = 1 << table if type(table) is int and 0 <= table < _TABLE_LIMIT else 0
        rows.append([0, table, get("alg"), get("rows"), get("cost"), get("order", MISSING)])
    else:
        raise ValueError(f"unknown plan operator {get('op')!r}")
    if masks and read_int(node, "mask") != mask:
        raise ValueError(f"a plan node's mask {get('mask')!r} is not its tables' {mask}")
    return mask


def _decode(data: Any, tables: dict[int, int] | None) -> Plan:
    # A plan's JSON type tells its form: an array is flat rows, an object
    # the nested form.
    if type(data) is list:
        return _decode_rows(data, tables)
    if type(data) is not dict:
        raise ValueError(f"a plan must be a JSON array or object, got {data!r:.80}")
    rows: list[list] = []
    _nested_rows(data, rows, tables is None)
    return _decode_rows(rows, tables)


def plan_from_wire(data: list | dict[str, Any], mapping: tuple[int, ...] | None = None) -> Plan:
    """Rebuild a plan tree from :func:`plan_to_wire` output.

    A JSON array is read as flat rows; a JSON object as the nested form
    (one object per node, ``"op"``, ``"mask"`` and children inside) that
    versions before the flat rows wrote to logs, snapshots and the wire.

    With a ``mapping`` (``mapping[old] = new``, a permutation of the
    query's tables) the tree is decoded straight into the new numbering:
    the result equals ``remap_plan(plan_from_wire(data), mapping)`` — a
    scan's mask is its mapped table's bit, a join's the union of its
    operands', an order's table is mapped, and costs, rows and operators
    are copied verbatim — at the price of one tree build, not two.

    Raises ``ValueError`` on malformed input — a persistent cache decoding
    a corrupt record must fail loudly, not serve a half-built plan.  For
    rows that includes a bad tag or arity, a join with fewer than two
    operands before it, rows left over, and a join whose operands share a
    table.  A table number outside ``mapping`` is malformed input too.
    """
    return _decode(data, _table_map(mapping))


def plans_to_wire(plans: list[Plan]) -> list[list[list]]:
    """Encode a plan list — a Pareto or parametric lower-envelope frontier.

    Frontier order is meaningful (backends pin it; golden tests assert it)
    and is preserved verbatim.
    """
    return [plan_to_wire(plan) for plan in plans]


def plans_from_wire(data: list, mapping: tuple[int, ...] | None = None) -> list[Plan]:
    """Inverse of :func:`plans_to_wire`, preserving frontier order.

    Each plan is read in its own form (see :func:`plan_from_wire`), and
    ``mapping`` renumbers every plan as there.
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
