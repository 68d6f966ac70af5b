"""Fast DP enumeration core — the ``fastdp`` backend.

A drop-in replacement for the object-based worker DP in
:mod:`repro.core.worker`, selected via
:attr:`repro.config.OptimizerSettings.backend`.  It searches exactly the
same plan space under exactly the same partition constraints and produces
the same cost frontiers and worker statistics; the differential-testing
oracle in :mod:`repro.testing` enforces this equivalence plan-for-plan.

What makes it fast:

* **level-wise bitset enumeration** over the precomputed admissible-mask
  lists of :func:`~repro.core.partitioning.admissible_results_by_size`,
  with the inner bit loop written against raw ``int`` operations
  (``mask & -mask``, ``int.bit_count``) instead of generator helpers;
* **packed flat cost state** — per table set the DP stores plain floats
  (single objective) or tuples-plus-back-pointers (multiple objectives)
  rather than :class:`~repro.plans.plan.Plan` objects, so the inner loop
  allocates no plan nodes, no :class:`~repro.cost.costmodel.JoinCandidate`
  tuples, and no builder closures;
* **dominance pruning that short-circuits on the single-objective case** —
  a scalar ``<`` against the running minimum replaces the
  :class:`~repro.cost.pruning.PruningPolicy` dispatch, and the
  multi-objective path inlines (α-)dominance over the kept frontier;
* **an inlined kernel for the default execution-time metric** that
  reproduces :class:`~repro.cost.metrics.ExecutionTimeMetric` arithmetic
  operation-for-operation (same order of float additions), so costs are
  bit-identical to the legacy backend's.

Plan trees are materialized once, at the end, by walking back-pointers from
the full table set; every intermediate table set costs two dict stores.

Full query-class coverage (no legacy fallback):

* **interesting orders** — flat per-(table set, order) entries keyed by an
  *interned* order id (:class:`~repro.plans.orders.OrderInterner`); the
  sort keys of a split come from a bit-peeling replication of
  ``Query.predicates_between``'s scan order, so the chosen sort-merge key
  is byte-identical to the legacy backend's.  The frontier kernel compiles
  :func:`~repro.plans.orders.order_satisfies` to one indexed load in a
  precomputed boolean table.  The single-objective kernel does not load
  that table at all: ``order_satisfies(p, r)`` is "``r`` is unsorted or
  ``p == r``", so :class:`~repro.cost.pruning.InterestingOrderPruning`
  keeps **at most one entry per order id** per table set, and the set
  being filled is an insertion-ordered dict order id → entry.  An unsorted
  candidate (BNL, hash) is rejected iff *any* kept entry costs no more —
  one compare against ``floor``, the cheapest kept cost; a sorted one
  (sort-merge) iff the entry *of its own order* costs no more — one compare
  against that entry's cost, hoisted per split; an accept replaces its own
  order's entry (pop, re-insert at the end) and a sorted accept also pops
  the unsorted entry when it costs no more than it.  "No entry yet" is
  tested as such, never as an ``inf`` sentinel: an ``inf``-cost candidate
  that opens an empty set or a new order is kept, as the policy keeps it
  (``tests/test_interesting_orders.py`` pins the one-entry-per-order
  premise, ``tests/test_edge_cases.py`` the overflow case);
* **parametric costs** — piecewise-linear lower-envelope frontiers stored
  in the same packed (cost vector, back-pointer) lists and kept by
  :class:`~repro.cost.parametric.IncrementalEnvelope`, the parametric
  frontier policy.  The reference functions
  (:func:`~repro.cost.parametric.needed_on_envelope`,
  :func:`~repro.cost.parametric.envelope_filter`) are the *specification*:
  the legacy policy, ``FinalPrune`` and the differential oracle execute
  them literally, while this core runs their incremental form — the same
  float expressions, evaluated once per entry-list version instead of once
  per candidate, behind the dominance short-circuit generalized to
  parameter intervals (a kept line that bounds the candidate at both
  θ-endpoints rejects it before any envelope arithmetic runs).  The
  exactness argument sits beside the class; equality of every keep / evict
  decision and of entry order is checked by the Hypothesis replay property
  in ``tests/test_parametric.py``, the partitioned parity matrix in
  ``tests/test_fastdp.py`` and the differential sweep.

Equivalence contract (checked by ``repro.testing`` and
``tests/test_fastdp.py``):

* candidates are generated in the legacy order — table sets by level, inner
  operands in ascending bit order (linear) / ``bushy_operands`` order
  (bushy), stored sub-plans in insertion order, operators in
  ``ALL_JOIN_ALGORITHMS`` order — so order-sensitive tie-breaking and
  α-pruning (α > 1) decisions match the legacy backend exactly;
* all cost arithmetic either calls the same :class:`~repro.cost.metrics`
  methods or replicates them literally;
* :class:`~repro.core.worker.WorkerStats` counters are maintained with the
  legacy semantics (a split is counted only when both operands have stored
  plans; a candidate is "kept" exactly when the legacy pruning would have
  kept it).

The module self-registers with the backend registry of
:mod:`repro.core.worker`, declaring the full capability set
(:data:`CAPABILITIES`), so :attr:`~repro.config.Backend.AUTO` resolves here
for every settings value.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from math import inf, log2

from repro.config import Backend, OptimizerSettings, PlanSpace
from repro.core.constraints import partition_constraints
from repro.core.partitioning import admissible_results_by_size
from repro.core.worker import (
    ALL_CAPABILITIES,
    EnumerationBackend,
    PartitionResult,
    WorkerStats,
    _bushy_groups,
    bushy_operands,
    linear_after_masks,
    register_backend,
)
from repro.cost.costmodel import CostModel
from repro.cost.metrics import HASH_FACTOR, ExecutionTimeMetric
from repro.cost.parametric import IncrementalEnvelope
from repro.cost.pruning import per_level_alpha
from repro.plans.operators import ALL_JOIN_ALGORITHMS
from repro.plans.orders import UNSORTED, OrderInterner, SortOrder
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.query.query import Query

#: Back-pointer of a join entry: (left mask, left entry index, right mask,
#: right entry index, join algorithm).  Scan entries store the ScanPlan
#: itself.  Single-objective state drops the indices (one entry per mask).

#: The capability set this core declares to the backend registry: every
#: query class the optimizer settings can express.
CAPABILITIES = ALL_CAPABILITIES


def _adjacency_masks(query: Query) -> list[int]:
    """Per-table bitmask of join-graph neighbours.

    An equality predicate connects disjoint sets ``L``/``R`` iff some table
    of one side has a neighbour in the other — the O(1)-per-split
    replacement for building the ``predicates_between`` list when only
    operator applicability (hash / sort-merge need an equi predicate) is at
    stake.
    """
    adjacency = [0] * query.n_tables
    for predicate in query.predicates:
        adjacency[predicate.left_table] |= 1 << predicate.right_table
        adjacency[predicate.right_table] |= 1 << predicate.left_table
    return adjacency


def _connected(left_mask: int, right_mask: int, adjacency: list[int]) -> bool:
    """Whether any predicate connects the two disjoint table sets."""
    smaller, other = (
        (left_mask, right_mask)
        if left_mask.bit_count() <= right_mask.bit_count()
        else (right_mask, left_mask)
    )
    while smaller:
        low = smaller & -smaller
        smaller ^= low
        if adjacency[low.bit_length() - 1] & other:
            return True
    return False


def optimize_partition_fastdp(
    query: Query,
    partition_id: int,
    n_partitions: int,
    settings: OptimizerSettings,
) -> PartitionResult:
    """Optimize one plan-space partition with the fast enumeration core.

    Same contract as :func:`repro.core.worker.optimize_partition`; callers
    normally go through the worker, whose registry dispatches on
    ``settings.backend`` (this core declares every capability, so it is
    eligible for any settings value).
    """
    started = time.perf_counter()
    n = query.n_tables
    constraints = partition_constraints(
        n, partition_id, n_partitions, settings.plan_space
    )
    stats = WorkerStats(
        partition_id=partition_id,
        n_partitions=n_partitions,
        n_constraints=len(constraints),
        backend_used=Backend.FASTDP.value,
    )
    by_size = admissible_results_by_size(n, constraints, settings.plan_space)
    stats.admissible_results = sum(len(masks) for masks in by_size.values())

    cost_model = CostModel(query, settings)
    adjacency = _adjacency_masks(query)
    if settings.parametric:
        plans = _run_frontier(
            query, constraints, by_size, cost_model, adjacency, stats,
            parametric=True,
        )
    elif settings.is_multi_objective:
        plans = _run_frontier(
            query, constraints, by_size, cost_model, adjacency, stats
        )
    elif settings.consider_orders:
        plans = _run_single_orders(
            query, constraints, by_size, cost_model, adjacency, stats
        )
    else:
        plans = _run_single(
            query, constraints, by_size, cost_model, adjacency, stats
        )
    stats.result_plans = len(plans)
    stats.wall_time_s = time.perf_counter() - started
    return PartitionResult(plans=plans, stats=stats)


# -------------------------------------------------------------------- orders


def _intern_query_orders(query: Query) -> OrderInterner:
    """Intern every sort order that can appear while optimizing ``query``.

    Two sources, exhaustively: clustered-index scan orders of base tables,
    and the endpoint columns of equality predicates (the only orders
    sort-merge joins can produce).  Interning everything upfront keeps the
    compiled satisfies table complete and the id assignment deterministic.
    """
    interner = OrderInterner()
    for table_number, table in enumerate(query.tables):
        if table.clustered_on is not None:
            interner.intern(SortOrder(table_number, table.clustered_on))
    for predicate in query.predicates:
        interner.intern(SortOrder(predicate.left_table, predicate.left_column))
        interner.intern(SortOrder(predicate.right_table, predicate.right_column))
    return interner


def _predicate_records(
    query: Query, interner: OrderInterner
) -> list[list[tuple[int, int, int, int]]]:
    """Per-table incident predicates as (left bit, right bit, key ids).

    ``records[t]`` lists, in the per-table insertion order of
    ``Query.predicates_of``, one ``(left_bit, right_bit, left_key_id,
    right_key_id)`` tuple per predicate incident to ``t`` — the flat form
    :func:`_first_connecting` scans to replicate
    ``Query.predicates_between``'s result order without building predicate
    lists per split.
    """
    records: list[list[tuple[int, int, int, int]]] = []
    for table_number in range(query.n_tables):
        rows = []
        for predicate in query.predicates_of(table_number):
            rows.append(
                (
                    1 << predicate.left_table,
                    1 << predicate.right_table,
                    interner.id_of(
                        SortOrder(predicate.left_table, predicate.left_column)
                    ),
                    interner.id_of(
                        SortOrder(predicate.right_table, predicate.right_column)
                    ),
                )
            )
        records.append(rows)
    return records


def _first_connecting(
    left_mask: int,
    right_mask: int,
    records: list[list[tuple[int, int, int, int]]],
) -> tuple[int, int] | None:
    """Sort-key ids ``(left key, right key)`` of the first connecting predicate.

    Replicates ``Query.predicates_between(left, right)[0]`` exactly: scan
    the *smaller* operand's tables in ascending bit order, each table's
    incident predicates in insertion order, and orient the first connecting
    predicate's endpoint keys to the (left, right) operand sides — the
    orientation ``CostModel._split_keys`` applies.  ``None`` when no
    predicate connects the operands (then only BNL applies anyway).
    """
    smaller = (
        left_mask
        if left_mask.bit_count() <= right_mask.bit_count()
        else right_mask
    )
    while smaller:
        low = smaller & -smaller
        smaller ^= low
        for left_bit, right_bit, left_key, right_key in records[
            low.bit_length() - 1
        ]:
            if left_bit & left_mask:
                if right_bit & right_mask:
                    return left_key, right_key
            elif left_bit & right_mask and right_bit & left_mask:
                return right_key, left_key
    return None


# --------------------------------------------------------------------- single


def _run_single(
    query: Query,
    constraints: tuple,
    by_size: dict[int, list[int]],
    cost_model: CostModel,
    adjacency: list[int],
    stats: WorkerStats,
) -> list[Plan]:
    """Single-objective DP: one float and one back-pointer per table set.

    Pruning short-circuits to a strict ``<`` against the running minimum —
    exactly the decisions :class:`~repro.cost.pruning.MinCostPruning` makes
    when fed candidates in the same order (first-generated wins ties).
    """
    n = query.n_tables
    settings = cost_model.settings
    metric = cost_model.metrics[0]
    inline_time = type(metric) is ExecutionTimeMetric
    join_cost = metric.join_cost
    est_rows = cost_model.cardinality.rows
    algos_all = settings.use_all_join_algorithms
    bnl, hash_join, sort_merge = ALL_JOIN_ALGORITHMS
    hash_factor = HASH_FACTOR

    cost: dict[int, float] = {}
    back: dict[int, object] = {}
    rows: dict[int, float] = {}
    cost_get = cost.get  # hoisted: one method lookup, not one per split
    scan_cost = [0.0] * n
    card = [0.0] * n
    for table_number in range(n):
        scan = cost_model.scan_plans(table_number)[0]
        mask = 1 << table_number
        cost[mask] = scan.cost[0]
        back[mask] = scan
        rows[mask] = scan.rows
        scan_cost[table_number] = scan.cost[0]
        card[table_number] = scan.rows

    splits = considered = kept = 0
    linear = settings.plan_space is PlanSpace.LINEAR
    if linear:
        after = linear_after_masks(n, constraints)
    else:
        groups = _bushy_groups(n, constraints)

    for size in range(2, n + 1):
        for mask in by_size.get(size, ()):
            best = inf
            best_bp = None
            out_rows = -1.0
            if linear:
                # Admissible splits: peel each bit as the inner operand.
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    inner = low.bit_length() - 1
                    if after[inner] & mask:
                        continue
                    rest = mask ^ low
                    left_cost = cost_get(rest)
                    if left_cost is None:
                        continue
                    splits += 1
                    left_rows = rows[rest]
                    right_rows = card[inner]
                    base = left_cost + scan_cost[inner]
                    equi = algos_all and adjacency[inner] & rest
                    if inline_time:
                        considered += 1
                        candidate = base + left_rows * right_rows
                        if candidate < best:
                            best = candidate
                            best_bp = (rest, low, bnl)
                            kept += 1
                        if equi:
                            considered += 2
                            candidate = base + hash_factor * (
                                left_rows + right_rows
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (rest, low, hash_join)
                                kept += 1
                            operator = left_rows + right_rows
                            operator += left_rows * log2(
                                left_rows if left_rows > 2.0 else 2.0
                            )
                            operator += right_rows * log2(
                                right_rows if right_rows > 2.0 else 2.0
                            )
                            candidate = base + operator
                            if candidate < best:
                                best = candidate
                                best_bp = (rest, low, sort_merge)
                                kept += 1
                    else:
                        if out_rows < 0.0:
                            out_rows = est_rows(mask)
                        right_cost = scan_cost[inner]
                        considered += 1
                        candidate = join_cost(
                            left_cost, right_cost, left_rows, right_rows,
                            out_rows, bnl, False, False,
                        )
                        if candidate < best:
                            best = candidate
                            best_bp = (rest, low, bnl)
                            kept += 1
                        if equi:
                            considered += 2
                            candidate = join_cost(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, hash_join, False, False,
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (rest, low, hash_join)
                                kept += 1
                            candidate = join_cost(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, sort_merge, True, True,
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (rest, low, sort_merge)
                                kept += 1
            else:
                for left_mask in bushy_operands(mask, groups):
                    if left_mask == 0 or left_mask == mask:
                        continue
                    right_mask = mask ^ left_mask
                    left_cost = cost_get(left_mask)
                    if left_cost is None:
                        continue
                    right_cost = cost_get(right_mask)
                    if right_cost is None:
                        continue
                    splits += 1
                    left_rows = rows[left_mask]
                    right_rows = rows[right_mask]
                    base = left_cost + right_cost
                    equi = algos_all and _connected(
                        left_mask, right_mask, adjacency
                    )
                    if inline_time:
                        considered += 1
                        candidate = base + left_rows * right_rows
                        if candidate < best:
                            best = candidate
                            best_bp = (left_mask, right_mask, bnl)
                            kept += 1
                        if equi:
                            considered += 2
                            candidate = base + hash_factor * (
                                left_rows + right_rows
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (left_mask, right_mask, hash_join)
                                kept += 1
                            operator = left_rows + right_rows
                            operator += left_rows * log2(
                                left_rows if left_rows > 2.0 else 2.0
                            )
                            operator += right_rows * log2(
                                right_rows if right_rows > 2.0 else 2.0
                            )
                            candidate = base + operator
                            if candidate < best:
                                best = candidate
                                best_bp = (left_mask, right_mask, sort_merge)
                                kept += 1
                    else:
                        if out_rows < 0.0:
                            out_rows = est_rows(mask)
                        considered += 1
                        candidate = join_cost(
                            left_cost, right_cost, left_rows, right_rows,
                            out_rows, bnl, False, False,
                        )
                        if candidate < best:
                            best = candidate
                            best_bp = (left_mask, right_mask, bnl)
                            kept += 1
                        if equi:
                            considered += 2
                            candidate = join_cost(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, hash_join, False, False,
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (left_mask, right_mask, hash_join)
                                kept += 1
                            candidate = join_cost(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, sort_merge, True, True,
                            )
                            if candidate < best:
                                best = candidate
                                best_bp = (left_mask, right_mask, sort_merge)
                                kept += 1
            if best_bp is not None:
                cost[mask] = best
                back[mask] = best_bp
                rows[mask] = out_rows if out_rows >= 0.0 else est_rows(mask)

    stats.splits_considered = splits
    stats.plans_considered = considered
    stats.plans_kept = kept
    stats.table_entries = len(cost)
    stats.stored_plans = len(cost)
    full_mask = query.all_tables_mask
    if full_mask not in back:
        return []
    return [_build_single(full_mask, cost, back, rows, {})]


def _build_single(
    mask: int,
    cost: dict[int, float],
    back: dict[int, object],
    rows: dict[int, float],
    memo: dict[int, Plan],
) -> Plan:
    """Materialize the stored plan for ``mask`` by walking back-pointers."""
    plan = memo.get(mask)
    if plan is not None:
        return plan
    pointer = back[mask]
    if isinstance(pointer, Plan):
        memo[mask] = pointer
        return pointer
    left_mask, right_mask, algorithm = pointer
    plan = JoinPlan(
        mask=mask,
        rows=rows[mask],
        cost=(cost[mask],),
        order=None,
        left=_build_single(left_mask, cost, back, rows, memo),
        right=_build_single(right_mask, cost, back, rows, memo),
        algorithm=algorithm,
    )
    memo[mask] = plan
    return plan


# ------------------------------------------------------------- single+orders


def _run_single_orders(
    query: Query,
    constraints: tuple,
    by_size: dict[int, list[int]],
    cost_model: CostModel,
    adjacency: list[int],
    stats: WorkerStats,
) -> list[Plan]:
    """Single-objective DP over flat per-(table set, order) cost entries.

    Entries are ``(cost, order id, back-pointer)`` tuples, at most one per
    order id per table set (see the module docstring).  While a table set
    is *open* — its iteration of the level sweep — its entries live in an
    insertion-ordered dict keyed by order id, beside the floats
    :class:`~repro.cost.pruning.InterestingOrderPruning`'s comparisons are
    made against: ``floor`` (cheapest kept cost of any order),
    ``unsorted_cost`` and, per split, ``sm_cost`` (kept cost of the
    unsorted entry / of the split's sort order; ``None`` = no such entry).
    A rejected candidate calls nothing and allocates nothing.  When the
    sweep of the set ends it is closed into ``list(entry.values())``, the
    list later levels' ``(left index, right index)`` back-pointers index.
    """
    n = query.n_tables
    settings = cost_model.settings
    metric = cost_model.metrics[0]
    inline_time = type(metric) is ExecutionTimeMetric
    join_cost = metric.join_cost
    est_rows = cost_model.cardinality.rows
    algos_all = settings.use_all_join_algorithms
    bnl, hash_join, sort_merge = ALL_JOIN_ALGORITHMS
    hash_factor = HASH_FACTOR

    interner = _intern_query_orders(query)
    records = _predicate_records(query, interner)

    # entries[mask]: list of (cost, order id, back-pointer); scans store the
    # ScanPlan itself as pointer, joins the 5-tuple described at module top.
    entries: dict[int, list[tuple[float, int, object]]] = {}
    rows: dict[int, float] = {}
    entries_get = entries.get  # hoisted: one method lookup, not one per call

    # Scans enter through the same rule, spelled over the whole entry: a
    # table's few scan plans are not worth the running floats.
    for table_number in range(n):
        entry: dict[int, tuple[float, int, object]] = {}
        for scan in cost_model.scan_plans(table_number):
            cost = scan.cost[0]
            order_id = interner.id_of(scan.order)
            if order_id == UNSORTED:
                if any(item[0] <= cost for item in entry.values()):
                    continue
            else:
                if order_id in entry and entry[order_id][0] <= cost:
                    continue
                if UNSORTED in entry and cost <= entry[UNSORTED][0]:
                    del entry[UNSORTED]
            entry.pop(order_id, None)
            entry[order_id] = (cost, order_id, scan)
        entries[1 << table_number] = list(entry.values())
        rows[1 << table_number] = scan.rows

    splits = considered = kept = 0
    linear = settings.plan_space is PlanSpace.LINEAR
    if linear:
        after = linear_after_masks(n, constraints)
    else:
        groups = _bushy_groups(n, constraints)

    # One split buffer per level sweep, preallocated once and reused for
    # every mask (a level's masks admit at most n splits each), instead of
    # a fresh list allocation per mask.
    splits_iter: list[tuple[int, int]] = []
    for size in range(2, n + 1):
        for mask in by_size.get(size, ()):
            out_rows = -1.0
            entry = {}
            floor = inf
            unsorted_cost = None
            del splits_iter[:]
            if linear:
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    inner = low.bit_length() - 1
                    if after[inner] & mask:
                        continue
                    splits_iter.append((mask ^ low, low))
            else:
                for left_mask in bushy_operands(mask, groups):
                    if left_mask == 0 or left_mask == mask:
                        continue
                    splits_iter.append((left_mask, mask ^ left_mask))
            for left_mask, right_mask in splits_iter:
                left_entry = entries_get(left_mask)
                if left_entry is None:
                    continue
                right_entry = entries_get(right_mask)
                if right_entry is None:
                    continue
                splits += 1
                left_rows = rows[left_mask]
                right_rows = rows[right_mask]
                equi = algos_all and _connected(
                    left_mask, right_mask, adjacency
                )
                if inline_time:
                    bnl_term = left_rows * right_rows
                elif out_rows < 0.0:
                    out_rows = est_rows(mask)
                if equi:
                    sm_left, sm_right = _first_connecting(
                        left_mask, right_mask, records
                    )
                    sm_cost = entry[sm_left][0] if sm_left in entry else None
                    if inline_time:
                        hash_term = hash_factor * (left_rows + right_rows)
                        merge_term = left_rows + right_rows
                        left_sort = left_rows * log2(
                            left_rows if left_rows > 2.0 else 2.0
                        )
                        right_sort = right_rows * log2(
                            right_rows if right_rows > 2.0 else 2.0
                        )
                for left_index, left_item in enumerate(left_entry):
                    left_cost, left_oid, _ = left_item
                    for right_index, right_item in enumerate(right_entry):
                        right_cost, right_oid, _ = right_item
                        if inline_time:
                            base = left_cost + right_cost
                            candidate = base + bnl_term
                            if equi:
                                hash_candidate = base + hash_term
                                operator = merge_term
                                if left_oid != sm_left:
                                    operator += left_sort
                                if right_oid != sm_right:
                                    operator += right_sort
                                sm_candidate = base + operator
                        else:
                            candidate = join_cost(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, bnl, False, False,
                            )
                            if equi:
                                hash_candidate = join_cost(
                                    left_cost, right_cost, left_rows,
                                    right_rows, out_rows, hash_join,
                                    False, False,
                                )
                                sm_candidate = join_cost(
                                    left_cost, right_cost, left_rows,
                                    right_rows, out_rows, sort_merge,
                                    left_oid != sm_left,
                                    right_oid != sm_right,
                                )
                        # InterestingOrderPruning: an unsorted candidate is
                        # kept iff no kept entry costs <= it, a sorted one
                        # iff none of its own order does; an accept evicts
                        # its own order's entry and, from a sorted accept
                        # that costs no more, the unsorted one.
                        considered += 1
                        if candidate < floor or not entry:
                            kept += 1
                            entry.pop(UNSORTED, None)
                            entry[UNSORTED] = (
                                candidate, UNSORTED,
                                (left_mask, left_index, right_mask,
                                 right_index, bnl),
                            )
                            floor = unsorted_cost = candidate
                        if not equi:
                            continue
                        considered += 2  # entry is non-empty: BNL came first
                        if hash_candidate < floor:
                            kept += 1
                            entry.pop(UNSORTED, None)
                            entry[UNSORTED] = (
                                hash_candidate, UNSORTED,
                                (left_mask, left_index, right_mask,
                                 right_index, hash_join),
                            )
                            floor = unsorted_cost = hash_candidate
                        if sm_cost is None or sm_candidate < sm_cost:
                            kept += 1
                            entry.pop(sm_left, None)
                            entry[sm_left] = (
                                sm_candidate, sm_left,
                                (left_mask, left_index, right_mask,
                                 right_index, sort_merge),
                            )
                            sm_cost = sm_candidate
                            if sm_candidate < floor:
                                floor = sm_candidate
                            if (
                                unsorted_cost is not None
                                and sm_candidate <= unsorted_cost
                            ):
                                del entry[UNSORTED]
                                unsorted_cost = None
            if entry:
                entries[mask] = list(entry.values())
                rows[mask] = out_rows if out_rows >= 0.0 else est_rows(mask)

    stats.splits_considered = splits
    stats.plans_considered = considered
    stats.plans_kept = kept
    stats.table_entries = len(entries)
    stats.stored_plans = sum(len(entry) for entry in entries.values())
    full_mask = query.all_tables_mask
    final = entries.get(full_mask)
    if not final:
        return []
    memo: dict[tuple[int, int], Plan] = {}
    return [
        _build_single_orders(full_mask, index, entries, rows, interner, memo)
        for index in range(len(final))
    ]


def _build_single_orders(
    mask: int,
    index: int,
    entries: dict[int, list[tuple[float, int, object]]],
    rows: dict[int, float],
    interner: OrderInterner,
    memo: dict[tuple[int, int], Plan],
) -> Plan:
    """Materialize entry ``index`` of ``mask`` with its interned order."""
    key = (mask, index)
    plan = memo.get(key)
    if plan is not None:
        return plan
    cost, order_id, pointer = entries[mask][index]
    if isinstance(pointer, Plan):
        memo[key] = pointer
        return pointer
    left_mask, left_index, right_mask, right_index, algorithm = pointer
    plan = JoinPlan(
        mask=mask,
        rows=rows[mask],
        cost=(cost,),
        order=interner.order_of(order_id),
        left=_build_single_orders(
            left_mask, left_index, entries, rows, interner, memo
        ),
        right=_build_single_orders(
            right_mask, right_index, entries, rows, interner, memo
        ),
        algorithm=algorithm,
    )
    memo[key] = plan
    return plan


# ---------------------------------------------------------------------- multi


def _vector_join_cost(joins: list[Callable[..., float]]) -> Callable[..., tuple]:
    """One candidate's cost vector from the per-metric ``join_cost`` methods.

    Chosen once per run by metric arity: the two-metric form (parametric,
    time/buffer) makes the same calls with the same arguments as the
    generic one, without a generator object per candidate.
    """
    if len(joins) == 2:
        first, second = joins
        return lambda left, right, *shared: (
            first(left[0], right[0], *shared),
            second(left[1], right[1], *shared),
        )
    return lambda left, right, *shared: tuple(
        join(left[i], right[i], *shared) for i, join in enumerate(joins)
    )


def _run_frontier(
    query: Query,
    constraints: tuple,
    by_size: dict[int, list[int]],
    cost_model: CostModel,
    adjacency: list[int],
    stats: WorkerStats,
    parametric: bool = False,
) -> list[Plan]:
    """Frontier DP on flat (cost vector, order id, back-pointer) entries.

    One kernel, three pruning disciplines selected once up front:

    * **exact / α Pareto** — replicates
      :class:`~repro.cost.pruning.ParetoPruning` decisions (reject a
      candidate some kept entry α-dominates *and* whose order covers it,
      evict entries the accepted candidate exactly dominates and covers,
      append) over candidates generated in the legacy order, so kept
      frontiers and their order match the legacy backend even for α > 1,
      where pruning is order-sensitive;
    * **parametric** (``parametric=True``) — one
      :class:`~repro.cost.parametric.IncrementalEnvelope` per table set,
      which makes :class:`~repro.cost.pruning.ParametricPruning`'s
      decisions without rebuilding the envelope on every accepted
      candidate; its ``payloads`` list *is* the table set's entry list.

    Interesting orders ride on interned ids: when orders are not tracked
    every entry carries :data:`~repro.plans.orders.UNSORTED` and the
    compiled satisfies table degenerates to "always", leaving pure cost
    dominance — the no-orders fast path costs two index loads, not a
    branch per comparison.
    """
    n = query.n_tables
    settings = cost_model.settings
    join_costs = _vector_join_cost(
        [metric.join_cost for metric in cost_model.metrics]
    )
    est_rows = cost_model.cardinality.rows
    algos_all = settings.use_all_join_algorithms
    bnl, hash_join, sort_merge = ALL_JOIN_ALGORITHMS
    track_orders = settings.consider_orders
    alpha = per_level_alpha(settings.alpha, n)
    exact = alpha == 1.0

    interner = _intern_query_orders(query)
    sat = interner.satisfies_table()
    records = _predicate_records(query, interner)

    # entries[mask]: list of (cost vector, order id, back-pointer); the
    # back-pointer is the ScanPlan for singletons, else (left mask, left
    # index, right mask, right index, algorithm) indexing the operands'
    # finalized entry lists.
    entries: dict[int, list[tuple[tuple[float, ...], int, object]]] = {}
    rows: dict[int, float] = {}
    entries_get = entries.get  # hoisted: one method lookup, not one per call

    if parametric:
        envelopes: dict[int, IncrementalEnvelope] = {}
        envelopes_get = envelopes.get

        def consider(
            mask: int,
            candidate: tuple[float, ...],
            order_id: int,
            pointer: object,
        ) -> bool:
            """ParametricPruning.consider; True iff the candidate was kept."""
            envelope = envelopes_get(mask)
            if envelope is None:
                envelope = envelopes[mask] = IncrementalEnvelope()
                entries[mask] = envelope.payloads
            return envelope.offer(candidate, (candidate, order_id, pointer))

    elif exact:

        def consider(
            mask: int,
            candidate: tuple[float, ...],
            order_id: int,
            pointer: object,
        ) -> bool:
            """ParetoPruning.consider (α = 1); True iff kept."""
            entry = entries_get(mask)
            if entry is None:
                entries[mask] = [(candidate, order_id, pointer)]
                return True
            for kept_cost, kept_oid, _pointer in entry:
                if sat[kept_oid][order_id]:
                    dominates_candidate = True
                    for ours, theirs in zip(kept_cost, candidate):
                        if ours > theirs:
                            dominates_candidate = False
                            break
                    if dominates_candidate:
                        return False
            survivors = []
            for item in entry:
                dominated = sat[order_id][item[1]]
                if dominated:
                    kept_cost = item[0]
                    for ours, theirs in zip(candidate, kept_cost):
                        if ours > theirs:
                            dominated = False
                            break
                if not dominated:
                    survivors.append(item)
            survivors.append((candidate, order_id, pointer))
            entries[mask] = survivors
            return True

    else:

        def consider(
            mask: int,
            candidate: tuple[float, ...],
            order_id: int,
            pointer: object,
        ) -> bool:
            """ParetoPruning.consider (α > 1); True iff kept."""
            entry = entries_get(mask)
            if entry is None:
                entries[mask] = [(candidate, order_id, pointer)]
                return True
            for kept_cost, kept_oid, _pointer in entry:
                if sat[kept_oid][order_id]:
                    dominates_candidate = True
                    for ours, theirs in zip(kept_cost, candidate):
                        if ours > alpha * theirs:
                            dominates_candidate = False
                            break
                    if dominates_candidate:
                        return False
            survivors = []
            for item in entry:
                dominated = sat[order_id][item[1]]
                if dominated:
                    kept_cost = item[0]
                    for ours, theirs in zip(candidate, kept_cost):
                        if ours > theirs:
                            dominated = False
                            break
                if not dominated:
                    survivors.append(item)
            survivors.append((candidate, order_id, pointer))
            entries[mask] = survivors
            return True

    for table_number in range(n):
        mask = 1 << table_number
        for scan in cost_model.scan_plans(table_number):
            consider(mask, scan.cost, interner.id_of(scan.order), scan)
            rows[mask] = scan.rows

    splits = considered = kept = 0
    linear = settings.plan_space is PlanSpace.LINEAR
    if linear:
        after = linear_after_masks(n, constraints)
    else:
        groups = _bushy_groups(n, constraints)

    # One split buffer per level sweep, preallocated once and reused for
    # every mask (a level's masks admit at most n splits each), instead of
    # a fresh list allocation per mask.
    splits_iter: list[tuple[int, int]] = []
    for size in range(2, n + 1):
        for mask in by_size.get(size, ()):
            out_rows = -1.0
            del splits_iter[:]
            if linear:
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    inner = low.bit_length() - 1
                    if after[inner] & mask:
                        continue
                    splits_iter.append((mask ^ low, low))
            else:
                for left_mask in bushy_operands(mask, groups):
                    if left_mask == 0 or left_mask == mask:
                        continue
                    splits_iter.append((left_mask, mask ^ left_mask))
            for left_mask, right_mask in splits_iter:
                left_entry = entries_get(left_mask)
                if left_entry is None:
                    continue
                right_entry = entries_get(right_mask)
                if right_entry is None:
                    continue
                splits += 1
                if out_rows < 0.0:
                    out_rows = est_rows(mask)
                left_rows = rows[left_mask]
                right_rows = rows[right_mask]
                equi = algos_all and _connected(
                    left_mask, right_mask, adjacency
                )
                # Sort-merge flags: without order tracking both inputs are
                # always sorted (the legacy cost model's _is_sorted is
                # False); with tracking they depend on each operand entry's
                # own order versus the split's sort keys.
                sm_left = sm_right = UNSORTED
                if equi and track_orders:
                    sm_left, sm_right = _first_connecting(
                        left_mask, right_mask, records
                    )
                for left_index in range(len(left_entry)):
                    left_item = left_entry[left_index]
                    left_cost = left_item[0]
                    for right_index in range(len(right_entry)):
                        right_item = right_entry[right_index]
                        right_cost = right_item[0]
                        considered += 1
                        if consider(
                            mask,
                            join_costs(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, bnl, False, False,
                            ),
                            UNSORTED,
                            (left_mask, left_index, right_mask,
                             right_index, bnl),
                        ):
                            kept += 1
                        if not equi:
                            continue
                        considered += 2
                        if consider(
                            mask,
                            join_costs(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, hash_join, False, False,
                            ),
                            UNSORTED,
                            (left_mask, left_index, right_mask,
                             right_index, hash_join),
                        ):
                            kept += 1
                        if track_orders:
                            sort_left = left_item[1] != sm_left
                            sort_right = right_item[1] != sm_right
                            sm_order = sm_left
                        else:
                            sort_left = sort_right = True
                            sm_order = UNSORTED
                        if consider(
                            mask,
                            join_costs(
                                left_cost, right_cost, left_rows, right_rows,
                                out_rows, sort_merge, sort_left, sort_right,
                            ),
                            sm_order,
                            (left_mask, left_index, right_mask,
                             right_index, sort_merge),
                        ):
                            kept += 1
            if out_rows >= 0.0 and mask in entries:
                rows[mask] = out_rows

    stats.splits_considered = splits
    stats.plans_considered = considered
    stats.plans_kept = kept
    stats.table_entries = len(entries)
    stats.stored_plans = sum(len(entry) for entry in entries.values())
    full_mask = query.all_tables_mask
    final = entries.get(full_mask)
    if not final:
        return []
    memo: dict[tuple[int, int], Plan] = {}
    return [
        _build_frontier(full_mask, index, entries, rows, interner, memo)
        for index in range(len(final))
    ]


def _build_frontier(
    mask: int,
    index: int,
    entries: dict[int, list[tuple[tuple[float, ...], int, object]]],
    rows: dict[int, float],
    interner: OrderInterner,
    memo: dict[tuple[int, int], Plan],
) -> Plan:
    """Materialize entry ``index`` of ``mask`` by walking back-pointers.

    Operand indices were recorded against finalized entry lists (strictly
    smaller table sets are complete before any larger set references them),
    so they resolve unambiguously here.
    """
    key = (mask, index)
    plan = memo.get(key)
    if plan is not None:
        return plan
    cost, order_id, pointer = entries[mask][index]
    if isinstance(pointer, Plan):
        memo[key] = pointer
        return pointer
    left_mask, left_index, right_mask, right_index, algorithm = pointer
    plan = JoinPlan(
        mask=mask,
        rows=rows[mask],
        cost=cost,
        order=interner.order_of(order_id),
        left=_build_frontier(
            left_mask, left_index, entries, rows, interner, memo
        ),
        right=_build_frontier(
            right_mask, right_index, entries, rows, interner, memo
        ),
        algorithm=algorithm,
    )
    memo[key] = plan
    return plan


# The fast core declares the full capability set — after this module, no
# settings value routes to the legacy core unless explicitly requested.
register_backend(
    EnumerationBackend(
        backend=Backend.FASTDP,
        capabilities=CAPABILITIES,
        speed_rank=10,
        loader=lambda: optimize_partition_fastdp,
    )
)
