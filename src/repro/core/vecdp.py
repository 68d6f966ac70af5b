"""Vectorized array-native enumeration core — the ``vecdp`` backend.

A level-at-a-time reformulation of the worker DP where each level's state
lives in contiguous numpy ``float64``/``int64`` arrays instead of per-entry
Python objects, selected via
:attr:`repro.config.OptimizerSettings.backend`.  It searches exactly the
same plan space under exactly the same partition constraints as the
``legacy`` and ``fastdp`` cores and produces the same plans and worker
statistics; the differential-testing oracle in :mod:`repro.testing`
enforces the equivalence plan-for-plan.

Every partition — constrained or not — runs the same array path.  The
admissible masks of a level are ``arange(2**n)`` filtered by each
constraint's ``excludes`` rule and bucketed by popcount (at p = 2 a
partition keeps three quarters of the masks — 196,590 of 262,125 at 18
tables — so enumerating them one by one costs more than the DP), and
``rows`` is filled for the whole dense state: values of masks that never
store an entry are dead, every read is gated on a stored entry.

Only the block-nested-loop and hash operators are costed.  Without
interesting orders a sort-merge candidate is never kept: the hash candidate
of the same operands comes right before it and costs no more in any metric
(see :func:`_run_single_vec`), so vecdp evaluates no transcendental —
every per-candidate operation is a pure elementwise IEEE add/mul/max.

Flat-array state layout (single objective):

* ``cost``   — dense ``float64[2**n]`` indexed by table-set bitmask;
  ``+inf`` means "no stored plan" (the dict-miss of the scalar cores);
* ``rows``   — estimated cardinality per mask, a vectorized replication of
  the cardinality estimator over the dense state;
* ``neighbours`` — per mask the OR of its tables' join-graph adjacency
  masks, filled like ``rows`` by ``n`` strided in-place ORs: an equi
  predicate straddles ``(left, right)`` iff ``neighbours[right] & left``
  (only singleton masks are filled, and read, in the linear space);
* ``bp_right``/``bp_algo`` — packed back-pointers (the right operand's
  mask — the left one is ``mask ^ right`` — plus an index into
  ``ALL_JOIN_ALGORITHMS``) from which plan trees are materialized once, at
  the end.

Per level, candidate joins are generated in bulk from the level's ``(masks,
splits)`` operand rectangle (:class:`_Splits`).  Linear spaces: each
mask's set bits in ascending order — a partition constraint only masks
cells out.  Bushy spaces: ``bushy_operands`` order, zero-padded, without a
per-mask call — ``bushy_operands`` is a per-group Cartesian product, so it
only fills two small half-tables (its operand lists for every bit pattern
of the low and of the high half of the constraint groups, 64 + 64 calls at
12 tables) and a rectangle is, per ``(len_A, len_B)`` class of masks, one
broadcast ``table_A[…][:, :, None] | table_B[…][:, None, :]``.

The single-objective sweep never holds a level's whole rectangle: it takes
it in blocks of about ``_BLOCK_CELLS`` cells (:meth:`_Splits.blocks`) and
carries the scalar loop's running minimum — per-level ``best`` /
``win_right`` / ``win_algo`` vectors, one slot per mask — from block to
block.  Within a block the candidate order is the scalar one (splits
ascending, operators in ``ALL_JOIN_ALGORITHMS`` order, ``+inf`` in
inapplicable cells): the exclusive running minimum before a cell is the
carried ``best`` folded with the block's earlier columns, counting strict
improvements against it recovers ``plans_kept``, ``argmin`` lands on the
*first* split achieving the block minimum, and the block's winner replaces
the carried one only where it is strictly cheaper — the strict-``<``
first-wins tie rule of the scalar cores.  Linear rectangles are tall and
narrow (48,620 × 9 at 18 tables), so they are cut by *columns*: a block is
a few bit-peels over the whole level, and once a level has ``_BLOCK_CELLS``
masks exactly one — every operation is then contiguous and the short-axis
``accumulate`` / ``argmin`` (≈ 10 ns a cell, unvectorisable over rows of
≤ 18) drop out.  Bushy rectangles are short and wide (up to ``2**size − 2``
splits), so they are cut by *rows*: a mask's whole split list stays in one
block and the half-table broadcast is unchanged.  The budget is small
because a block's dozen ``float64`` temporaries should stay in cache:
level-wide temporaries (3.5 MB each at 18 tables) made the sweep
memory-bound.

Multi-objective frontiers (α = 1 only) keep their state in CSR form:
``first``/``count`` are dense per-mask arrays pointing into one flat
``(entries, K)`` cost array, and every entry carries ``(left entry, right
entry, algorithm)`` back-pointers.  A level's whole candidate stream is
generated by ``repeat``/``cumsum`` index arithmetic over the same operand
rectangles, in the scalar order (mask → split → left entry → right entry →
operator), and pruned by one order-faithful weak-Pareto filter batched
over masks (:func:`_pareto_filter`).  Weak dominance is transitive, so a
candidate is rejected iff *some earlier candidate* weakly dominates it — a
property of the candidate stream alone, independent of the evolving
frontier — and the final frontier is the accepted candidates not weakly
dominated by any later accepted one, in acceptance order; the decisions,
counters, and entry order match :class:`~repro.cost.pruning.ParetoPruning`
fed the same stream.  α > 1 is *not* vectorizable this way — α-dominance
is not transitive, so pruning decisions depend on arrival order — which is
why :data:`repro.core.worker.BACKEND_CAPABILITIES` declares
:class:`~repro.core.worker.Capability` ``MULTI_OBJECTIVE | BUSHY_SPACE``
for this backend and leaves ``ALPHA_APPROXIMATION``,
``INTERESTING_ORDERS``, and ``PARAMETRIC_COSTS`` honestly undeclared:
``AUTO`` routes those query classes to fastdp.

numpy is a package dependency (``numpy>=2``: ``bitwise_count`` buckets the
levels).  The worker imports this module only when a partition runs on
it — resolving ``AUTO`` and fingerprinting do not — so a process that only
serves cache hits never pays numpy's import time and memory.
"""

from __future__ import annotations

import time
from math import inf

import numpy as np

from repro.config import Backend, OptimizerSettings, PlanSpace
from repro.core.constraints import LinearConstraint, partition_constraints
from repro.core.fastdp import _adjacency_masks
from repro.core.worker import (
    PartitionResult,
    WorkerStats,
    _bushy_groups,
    bushy_operands,
    linear_after_masks,
)
from repro.cost.costmodel import CostModel
from repro.cost.metrics import (
    BNL_BLOCK_TUPLES,
    HASH_FACTOR,
    BufferSpaceMetric,
    ExecutionTimeMetric,
    OutputRowsMetric,
)
from repro.plans.operators import ALL_JOIN_ALGORITHMS
from repro.plans.plan import JoinPlan, Plan
from repro.query.query import Query

#: Cap on cells per frontier candidate stream or dominance rectangle;
#: levels that would exceed it are processed in row chunks (level masks
#: are independent of each other).
_CELL_BUDGET = 1 << 22

#: Cells per operand block of the single-objective sweep
#: (:meth:`_Splits.blocks`): small enough that a block's dozen float64
#: temporaries stay cache-resident, and that a level of this many masks is
#: swept one contiguous column at a time (sweep of 2¹¹…2¹⁵ in CHANGES.md).
_BLOCK_CELLS = 1 << 12

#: Columns per block of the Pareto filter (block² comparisons per mask),
#: and candidates per cell of its first pass.
_PARETO_BLOCK = 256
_PARETO_CELL = 32


def optimize_partition_vecdp(
    query: Query,
    partition_id: int,
    n_partitions: int,
    settings: OptimizerSettings,
) -> PartitionResult:
    """Optimize one plan-space partition with the array-native core.

    Same contract as :func:`repro.core.worker.optimize_partition`; callers
    normally go through the worker, which only routes settings covered by
    this core's entry in :data:`repro.core.worker.BACKEND_CAPABILITIES`.
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
        backend_used=Backend.VECDP.value,
    )
    by_size = _levels(n, constraints, stats)
    run = _run_frontier_vec if settings.is_multi_objective else _run_single_vec
    # Genuine candidate costs may overflow to +inf (the scalar cores
    # produce the same IEEE inf silently); placeholder cells add inf to
    # finite garbage.  Neither is an error worth a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        plans = run(query, constraints, by_size, CostModel(query, settings), stats)
    stats.result_plans = len(plans)
    stats.wall_time_s = time.perf_counter() - started
    return PartitionResult(plans=plans, stats=stats)


# ------------------------------------------------------------ shared helpers


def _levels(n: int, constraints: tuple, stats: WorkerStats):
    """Per-level admissible-mask arrays, plus ``stats.admissible_results``.

    One bulk popcount-bucketing of ``arange(2**n)``, minus the masks some
    constraint excludes (linear ``before ≺ after``: has ``after``, lacks
    ``before``; bushy ``x ⪯ y|z``: has ``y`` and ``z``, lacks ``x``) —
    the set :func:`repro.core.partitioning.admissible_results_by_size`
    builds by Cartesian product, which stays the specification the tests
    compare against.  Mask *order* within a level is irrelevant to
    results: every level mask is costed independently from strictly
    smaller levels.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    if constraints:
        keep = np.ones(1 << n, dtype=bool)
        for constraint in constraints:
            if isinstance(constraint, LinearConstraint):
                has, lacks = 1 << constraint.after, 1 << constraint.before
            else:
                has = (1 << constraint.y) | (1 << constraint.z)
                lacks = 1 << constraint.x
            keep &= ((masks & has) != has) | ((masks & lacks) != 0)
        masks = masks[keep]
    sizes = np.bitwise_count(masks)
    by_size = {size: masks[sizes == size] for size in range(2, n + 1)}
    stats.admissible_results = sum(len(level) for level in by_size.values())
    return by_size


def _metric_kind(metric) -> str:
    """Dispatch tag for the vectorized cost formulas."""
    if type(metric) is ExecutionTimeMetric:
        return "time"
    if type(metric) is BufferSpaceMetric:
        return "buffer"
    if type(metric) is OutputRowsMetric:
        return "io"
    raise ValueError(
        f"vecdp has no vectorized formula for metric {metric!r}"
    )  # pragma: no cover - make_metrics only builds the three above


def _prefill(query: Query, cost_model: CostModel):
    """Dense ``rows`` for all ``2**n`` masks, and the scans.

    ``rows`` replicates ``CardinalityEstimator.rows``: the masks with a
    given bit (or bit pair) set form regular strided slices of the dense
    layout, so each factor is one in-place strided multiply of exactly the
    selected elements — base cardinalities in ascending table order, then
    predicate selectivities in query order, then the ``max(·, 1.0)`` floor
    — which keeps every element bit-identical to the scalar estimator's
    memoized value.
    """
    n = query.n_tables
    rows = np.ones(1 << n, dtype=np.float64)
    for number, table in enumerate(query.tables):
        view = rows.reshape(1 << (n - 1 - number), 2, 1 << number)
        view[:, 1, :] *= float(table.cardinality)
    for predicate in query.predicates:
        low = min(predicate.left_table, predicate.right_table)
        high = max(predicate.left_table, predicate.right_table)
        view = rows.reshape(
            1 << (n - 1 - high), 2, 1 << (high - 1 - low), 2, 1 << low
        )
        view[:, 1, :, 1, :] *= predicate.selectivity
    np.maximum(rows, 1.0, out=rows)
    scans = [cost_model.scan_plans(number)[0] for number in range(n)]
    for number, scan in enumerate(scans):
        rows[1 << number] = scan.rows
    return rows, scans


class _Splits:
    """The ``(masks, splits)`` operand rectangles of one partition.

    Shared by both DPs: the single-objective sweep takes a level's
    rectangle block by block (:meth:`blocks`), the frontier DP whole
    (:meth:`rect`).  ``neighbours[mask]`` is the OR of the adjacency
    masks of ``mask``'s tables, so a predicate straddles ``(left, right)``
    iff ``neighbours[right] & left`` (equally ``neighbours[left] & right``)
    is non-zero — the scalar cores' ``_connected`` as one gather.  In the
    linear space the right operand is always a singleton, so only the
    singleton *masks* are filled, and the constraints' "must be joined
    after" sets are keyed the same way — the rectangles hold bit values,
    not bit numbers.

    In the bushy space ``bushy_operands`` is a per-group Cartesian product,
    last group innermost, and a group reads only its own bits of the mask:
    cut the groups into a low half A and a high half B and ``operands(mask)
    == [a | b for a in operands_A(mask & A) for b in operands_B(mask & B)]``,
    order included.  ``halves`` holds per half ``(low bit, padded operand
    table, lengths)``, one table row per bit pattern of the half, filled by
    ``bushy_operands`` itself — the primitive under
    :func:`~repro.core.worker.split_source`, the scalar cores' one
    definition of admissibility and of split order, constraints included
    (``tests/test_vecdp_kernels.py`` checks every rectangle against it).
    """

    def __init__(self, query: Query, constraints: tuple, settings):
        self.linear = settings.plan_space is PlanSpace.LINEAR
        self.constrained = self.linear and bool(constraints)
        n = query.n_tables
        self.neighbours = np.zeros(1 << n, dtype=np.int64)
        if self.linear:
            bit_values = np.int64(1) << np.arange(n, dtype=np.int64)
            self.neighbours[bit_values] = _adjacency_masks(query)
            self.after = np.zeros(1 << n, dtype=np.int64)
            self.after[bit_values] = linear_after_masks(n, constraints)
            return
        for number, adjacent in enumerate(_adjacency_masks(query)):
            view = self.neighbours.reshape(1 << (n - 1 - number), 2, 1 << number)
            view[:, 1, :] |= adjacent
        groups = _bushy_groups(n, constraints)
        # Groups are consecutive bit ranges; cut where the halves balance.
        ends = [group.group_mask.bit_length() for group in groups]
        shift = min(ends, key=lambda end: abs(2 * end - n))
        cut = ends.index(shift) + 1
        self.halves = []
        for low, bits, half in ((0, shift, groups[:cut]), (shift, n - shift, groups[cut:])):
            lists = [
                bushy_operands(pattern << low, half) for pattern in range(1 << bits)
            ]
            lengths = np.asarray([len(operands) for operands in lists])
            table = np.zeros((1 << bits, int(lengths.max())), dtype=np.int64)
            for pattern, operands in enumerate(lists):
                table[pattern, : len(operands)] = operands
            self.halves.append((low, table, lengths))

    def blocks(self, masks, size: int):
        """Yield the level's operand rectangle as ``(span, left, right)``
        blocks of about ``_BLOCK_CELLS`` cells, a mask's blocks in split order.

        ``span`` is the slice of ``masks`` a block's rows belong to.  Linear:
        every mask has exactly ``size`` candidate splits, its set bits in
        ascending order — the scalar bit-peel order; the rectangle is tall
        and narrow, so blocks are runs of *columns* over the whole level
        (all of them while the level is small, one bit-peel per block once
        it has ``_BLOCK_CELLS`` masks).  Bushy: the admissible splits in
        ``bushy_operands`` order, padded with left operand 0, which never
        holds an entry and so can never validate; the rectangle is short
        and wide, so blocks are runs of *rows* — per ``(len_A, len_B)`` class
        of a block's masks one broadcast OR of the two halves' table rows,
        minus the first column (the mask itself) and the last (0).
        """
        if self.linear:
            columns = max(1, _BLOCK_CELLS // masks.shape[0])
            remaining = masks.copy()
            for start in range(0, size, columns):
                right = np.empty((masks.shape[0], min(columns, size - start)), dtype=np.int64)
                for column in range(right.shape[1]):
                    np.bitwise_and(remaining, -remaining, out=right[:, column])
                    remaining ^= right[:, column]
                yield slice(0, masks.shape[0]), masks[:, None] ^ right, right
            return
        (rows_a, table_a, lengths_a), (rows_b, table_b, lengths_b) = (
            ((masks >> low) & (table.shape[0] - 1), table, lengths)
            for low, table, lengths in self.halves
        )
        len_a, len_b = lengths_a[rows_a], lengths_b[rows_b]
        width = max(1, int((len_a * len_b).max()) - 2)
        radix = table_b.shape[1] + 1
        classes = len_a * radix + len_b
        per_block = max(1, _BLOCK_CELLS // width)
        for start in range(0, masks.shape[0], per_block):
            span = slice(start, min(start + per_block, masks.shape[0]))
            left = np.zeros((span.stop - start, width), dtype=np.int64)
            for key in np.unique(classes[span]).tolist():
                in_a, in_b = divmod(key, radix)
                members = np.flatnonzero(classes[span] == key)
                block = (
                    table_a[rows_a[span][members], :in_a, None]
                    | table_b[rows_b[span][members], None, :in_b]
                )
                left[members, : in_a * in_b - 2] = block.reshape(members.shape[0], -1)[:, 1:-1]
            yield span, left, masks[span, None] ^ left

    def rect(self, masks, size: int):
        """The whole ``(left, right)`` rectangle, one row per mask in split
        order: the concatenation of :meth:`blocks`."""
        _, lefts, rights = zip(*self.blocks(masks, size))
        axis = 1 if self.linear else 0
        return np.concatenate(lefts, axis), np.concatenate(rights, axis)

    def unblocked(self, masks, right):
        """Cells whose singleton may be joined last (constrained linear)."""
        return (self.after[right] & masks[:, None]) == 0

    def equi(self, left, right):
        """Cells with a predicate straddling the operands (``_connected``);
        ``False`` on padded cells, whose left operand is 0."""
        return (self.neighbours[right] & left) != 0


# --------------------------------------------------------------------- single


def _run_single_vec(
    query: Query,
    constraints: tuple,
    by_size: dict,
    cost_model: CostModel,
    stats: WorkerStats,
) -> list[Plan]:
    """Single-objective DP on dense per-mask arrays.

    A level is swept in operand blocks (:meth:`_Splits.blocks`) that arrive
    in the scalar generation order, with the scalar loop's ``best`` — and
    the split and operator that achieved it — carried per mask from block
    to block: a block's first-occurrence ``argmin`` replaces the carried
    winner only where strictly cheaper (the strict-``<`` tie rule), and
    strict improvements over the exclusive running minimum reproduce the
    improvement count (``plans_kept``) exactly.

    Sort-merge candidates are counted but never costed.  The hash candidate
    of the same split comes right before one and costs no more in any
    metric: time ``1.2·(l + r)`` against ``(l + r) + l·log2(max(l, 2)) +
    r·log2(max(r, 2)) ≥ 2·(l + r)`` on the same ``base``, buffer ``r``
    against ``max(l + r, 1)``, io the same for every operator — so it never
    strictly improves on the running minimum (and under weak-Pareto pruning
    it is always rejected, evicting nothing).  IEEE rounding is monotone, so
    the inequalities hold for the computed floats; ``tests/test_metrics.py::
    TestSortMergeNeverBeatsHash`` pins them on the reference metrics.
    """
    n = query.n_tables
    settings = cost_model.settings
    kind = _metric_kind(cost_model.metrics[0])
    algos_all = settings.use_all_join_algorithms
    state = 1 << n
    cost = np.full(state, inf, dtype=np.float64)
    bp_right = np.zeros(state, dtype=np.int64)
    bp_algo = np.full(state, -1, dtype=np.int8)
    rows, scan_list = _prefill(query, cost_model)
    scans: dict[int, Plan] = {}
    for table_number, scan in enumerate(scan_list):
        scans[1 << table_number] = scan
        cost[1 << table_number] = scan.cost[0]

    source = _Splits(query, constraints, settings)
    splits = considered = kept = 0
    stored = n
    # True while every admissible mask so far stored an entry — the normal
    # case, since the always-applicable BNL candidate only fails by
    # overflowing to +inf.  Lets linear levels skip the stored-operand scan:
    # a table no constraint blocks leaves an admissible, hence stored, set.
    all_stored = source.linear

    for size in range(2, n + 1):
        masks = by_size[size]
        if masks.shape[0] == 0:
            continue
        # The scalar loop's ``best`` and its winner, for every mask at once.
        best = np.full(masks.shape[0], inf, dtype=np.float64)
        win_right = np.zeros(masks.shape[0], dtype=np.int64)
        win_algo = np.zeros(masks.shape[0], dtype=np.int8)
        for span, left, right in source.blocks(masks, size):
            left_cost = cost[left]
            right_cost = cost[right]
            if source.linear:
                valid = None if all_stored else left_cost < inf
                if source.constrained:
                    unblocked = source.unblocked(masks[span], right)
                    valid = unblocked if valid is None else valid & unblocked
            else:
                valid = (left_cost < inf) & (right_cost < inf)
            if algos_all:
                # Hash and sort-merge count toward plans_considered even
                # where they are not costed (sort-merge always, see the
                # docstring; hash for "io", below).
                equi = source.equi(left, right)
                if valid is not None:
                    equi &= valid
                equi_total = int(np.count_nonzero(equi))
            else:
                equi_total = 0
            valid_total = left.size if valid is None else int(np.count_nonzero(valid))
            splits += valid_total
            considered += valid_total + 2 * equi_total

            with_hash = kind != "io" and equi_total > 0
            if kind == "time":
                base = left_cost + right_cost
                left_rows, right_rows = rows[left], rows[right]
                c_bnl = base + left_rows * right_rows
                if with_hash:
                    c_hash = base + HASH_FACTOR * (left_rows + right_rows)
            elif kind == "buffer":
                pair = np.maximum(left_cost, right_cost)
                c_bnl = np.maximum(pair, BNL_BLOCK_TUPLES)
                if with_hash:
                    c_hash = np.maximum(pair, rows[right])
            else:  # io: every operator costs the same, so the hash
                # candidate can never strictly improve on the
                # block-nested-loop one generated just before it either.
                c_bnl = (left_cost + right_cost) + rows[masks[span]][:, None]

            if valid is not None and valid_total != valid.size:
                np.copyto(c_bnl, inf, where=~valid)
            if with_hash:
                np.copyto(c_hash, inf, where=~equi)
                best2 = np.minimum(c_bnl, c_hash)
            else:
                best2 = c_bnl
            # Interleaved candidate order per mask is (split: bnl, hash).
            # ``before`` is the running minimum each BNL candidate meets:
            # the carried ``best`` in the block's first column, the fold of
            # the block's earlier splits into it after that; hash
            # additionally sees bnl.  Counting strict improvements against
            # it is the scalar ``if cost < best``.
            carry = best[span]
            if left.shape[1] == 1:
                before, win = carry[:, None], (slice(None), 0)
            else:
                pm = np.minimum.accumulate(best2, axis=1)
                before = np.empty_like(pm)
                before[:, 0] = carry
                np.minimum(pm[:, :-1], carry[:, None], out=before[:, 1:])
                # First split achieving the block minimum (the first
                # algorithm within it below): the scalar first-wins rule.
                win = (np.arange(left.shape[0]), best2.argmin(axis=1))
            block_best = best2[win]
            kept += int(np.count_nonzero(c_bnl < before))
            # Strict: an earlier block's split keeps a tie, as in the scan.
            improved = block_best < carry
            if with_hash:
                kept += int(np.count_nonzero(c_hash < np.minimum(before, c_bnl)))
                np.copyto(win_algo[span], c_bnl[win] != block_best, where=improved)
            else:
                np.copyto(win_algo[span], 0, where=improved)
            np.copyto(win_right[span], right[win], where=improved)
            np.copyto(carry, block_best, where=improved)
        # Masks whose every candidate overflowed keep cost +inf: no entry.
        cost[masks] = best
        bp_right[masks] = win_right
        bp_algo[masks] = win_algo
        level_entries = int(np.count_nonzero(best < inf))
        stored += level_entries
        if level_entries != masks.shape[0]:
            all_stored = False

    stats.splits_considered = splits
    stats.plans_considered = considered
    stats.plans_kept = kept
    stats.table_entries = stored
    stats.stored_plans = stored
    full_mask = query.all_tables_mask
    if full_mask not in scans and not cost[full_mask] < inf:
        return []
    return [_build_single_vec(full_mask, cost, rows, bp_right, bp_algo, scans)]


def _build_single_vec(mask: int, cost, rows, bp_right, bp_algo, memo: dict[int, Plan]) -> Plan:
    """Materialize the stored plan for ``mask`` from the packed arrays;
    ``memo`` starts out as the scans by singleton mask."""
    plan = memo.get(mask)
    if plan is None:
        right = int(bp_right[mask])
        plan = memo[mask] = JoinPlan(
            mask=mask,
            rows=float(rows[mask]),
            cost=(float(cost[mask]),),
            order=None,
            left=_build_single_vec(mask ^ right, cost, rows, bp_right, bp_algo, memo),
            right=_build_single_vec(right, cost, rows, bp_right, bp_algo, memo),
            algorithm=ALL_JOIN_ALGORITHMS[int(bp_algo[mask])],
        )
    return plan


# ---------------------------------------------------------------------- multi


def _weak_le(dominators, dominated):
    """``out[m, j, i]``: row ``j`` of the first weakly dominates row ``i`` of
    the second, per mask ``m`` — per-metric ANDs, which cost a fraction of an
    ``.all(axis=-1)`` reduction over the short trailing axis."""
    out = dominators[:, :, None, 0] <= dominated[:, None, :, 0]
    for metric in range(1, dominators.shape[2]):
        out &= dominators[:, :, None, metric] <= dominated[:, None, :, metric]
    return out


def _pareto_filter(candidates, widths):
    """Order-faithful weak-Pareto filter over many masks' candidate streams.

    ``candidates`` is the flat ``(total, K)`` concatenation of one stream
    per mask, ``widths`` the streams' lengths.  Returns ``(accepted,
    survivors)``: *accepted* counts every candidate the sequential
    :class:`~repro.cost.pruning.ParetoPruning` (α = 1, no orders) would
    have appended — its ``plans_kept`` contribution — and *survivors* are
    the flat indices of the final frontiers, ascending, i.e. per mask in
    acceptance order.

    Correctness rests on transitivity of weak dominance: a candidate is
    rejected by the sequential filter iff *some earlier candidate* weakly
    dominates it (chase the dominator through evictions/rejections to a
    live entry), so acceptance is decided by broadcast comparisons against
    the still-alive earlier columns plus the in-block prefix; a survivor is
    an accepted candidate no later accepted one dominates.

    The same argument lets a cheap first pass shrink the streams: a
    candidate some earlier one *of its own cell* (``_PARETO_CELL``
    consecutive candidates) dominates is rejected whatever else arrives,
    and whatever it would have rejected or evicted its dominator does too,
    so it is dropped before the quadratic part — half to two thirds of a
    DP level's candidates at ``_PARETO_CELL`` comparisons each.

    The remaining streams are bucketed by length (within 2× of each other,
    under the cell budget) into ``(masks, width, K)`` rectangles,
    ``+inf``-padded *after* the real rows; a ``real`` mask keeps padding
    from ever being accepted, evicting, or being counted — an overflowed
    real candidate is all ``+inf`` too and must still count.  Rectangles
    wider than ``_PARETO_BLOCK`` are swept blockwise against the alive
    columns so far.
    """
    total, n_metrics = candidates.shape
    owner = np.repeat(np.arange(widths.shape[0]), widths)
    padding = -total % _PARETO_CELL
    cells = np.concatenate([candidates, np.full((padding, n_metrics), inf)])
    cells = cells.reshape(-1, _PARETO_CELL, n_metrics)
    cell_owner = np.concatenate([owner, np.full(padding, -1)]).reshape(-1, _PARETO_CELL)
    beaten = _weak_le(cells, cells)
    beaten &= np.tri(_PARETO_CELL, k=-1, dtype=bool).T  # by earlier rows only
    beaten &= cell_owner[:, :, None] == cell_owner[:, None, :]
    shortlist = np.flatnonzero(~beaten.any(axis=1).reshape(-1)[:total])
    candidates = candidates[shortlist]
    widths = np.bincount(owner[shortlist], minlength=widths.shape[0])

    order = np.argsort(widths, kind="stable")
    order = order[widths[order] > 0]
    sorted_widths = widths[order]
    offsets = np.cumsum(widths) - widths
    accepted = 0
    survivors = [np.empty(0, dtype=np.intp)]
    low = 0
    while low < order.shape[0]:
        high = int(np.searchsorted(sorted_widths, 2 * sorted_widths[low], "right"))
        width = int(sorted_widths[high - 1])
        cap = max(1, _CELL_BUDGET // (width * min(width, _PARETO_BLOCK)))
        high = min(high, low + cap)
        width = int(sorted_widths[high - 1])
        bucket = order[low:high]
        low = high
        columns = np.arange(width)
        real = columns[None, :] < widths[bucket][:, None]
        index = np.where(real, offsets[bucket][:, None] + columns[None, :], 0)
        rect = candidates[index]
        rect[~real] = inf
        alive = np.zeros(real.shape, dtype=bool)
        front = np.empty(0, dtype=np.intp)  # columns alive for some mask
        for start in range(0, width, _PARETO_BLOCK):
            block = rect[:, start : start + _PARETO_BLOCK]
            size = block.shape[1]
            within = _weak_le(block, block)
            earlier = np.tri(size, k=-1, dtype=bool).T  # earlier[j, i] ⇔ j < i
            dominated = (within & earlier).any(axis=1)
            if front.shape[0]:
                front_alive = alive[:, front]
                dominated |= (
                    _weak_le(rect[:, front], block) & front_alive[:, :, None]
                ).any(axis=1)
            keep = real[:, start : start + size] & ~dominated
            accepted += int(keep.sum())
            # A later accept evicts every earlier one it weakly dominates.
            evictor = keep[:, :, None]
            alive[:, start : start + size] = keep & ~(
                within & earlier.T & evictor
            ).any(axis=1)
            if front.shape[0]:
                front_alive &= ~(
                    _weak_le(block, rect[:, front]) & evictor
                ).any(axis=1)
                alive[:, front] = front_alive
                front = front[front_alive.any(axis=0)]
            if start + size < width:
                front = np.concatenate(
                    [front, start + np.flatnonzero(alive[:, start : start + size].any(axis=0))]
                )
        survivors.append(index[alive])
    return accepted, shortlist[np.sort(np.concatenate(survivors))]


def _run_frontier_vec(
    query: Query,
    constraints: tuple,
    by_size: dict,
    cost_model: CostModel,
    stats: WorkerStats,
) -> list[Plan]:
    """Exact (α = 1) Pareto-frontier DP, one level of masks at a time.

    Frontier state is CSR: mask ``m`` owns entries ``first[m] … first[m] +
    count[m]`` of the flat ``entry_*`` arrays (entries ``0 … n-1`` are the
    scans).  Per split the operator cost depends only on the operand
    masks' cardinalities, so a level's candidates are gathers of operand
    entry costs plus a per-split ``(splits, 2)`` operator table, laid out
    in the scalar candidate order (mask, split, left entry, right entry,
    operator) so the order-faithful filter sees the same stream the
    sequential pruning would, with the reference's float association
    (``(l + r) + op``; ``max(max(l, r), op)``).  The stream leaves out
    every sort-merge candidate: the hash candidate just before it weakly
    dominates it (:func:`_run_single_vec`), so the filter would reject it
    and it would evict nothing — it is counted in ``plans_considered`` only.
    """
    n = query.n_tables
    settings = cost_model.settings
    kinds = [_metric_kind(metric) for metric in cost_model.metrics]
    rows, scans = _prefill(query, cost_model)
    source = _Splits(query, constraints, settings)

    singletons = np.int64(1) << np.arange(n, dtype=np.int64)
    first = np.zeros(1 << n, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    first[singletons] = np.arange(n)
    count[singletons] = 1
    entry_cost = np.asarray([scan.cost for scan in scans], dtype=np.float64)
    # Per-entry (mask, left entry, right entry, algorithm) columns.
    entry_ptr = np.zeros((n, 4), dtype=np.int64)
    entry_ptr[:, 0] = singletons

    splits = considered = kept = 0
    for size in range(2, n + 1):
        masks = by_size[size]
        if masks.shape[0] == 0:
            continue
        left, right = source.rect(masks, size)
        n_left = count[left]
        n_right = count[right]
        valid = (n_left > 0) & (n_right > 0)
        if source.constrained:
            valid &= source.unblocked(masks, right)
        pairs = n_left * n_right
        pairs[~valid] = 0
        if settings.use_all_join_algorithms:
            equi = source.equi(left, right)
            n_algos = np.where(equi, 2, 1)
            considered += int(pairs[equi].sum())  # the sort-merge candidates
        else:
            n_algos = np.ones_like(left)
        per_split = pairs * n_algos
        per_mask = per_split.sum(axis=1)
        splits += int(valid.sum())
        considered += int(per_mask.sum())

        # Masks are independent within a level: chunk them so that one
        # chunk's candidate stream stays under the cell budget.
        ends = np.cumsum(per_mask)
        low = 0
        while low < masks.shape[0]:
            done = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(np.searchsorted(ends, done + _CELL_BUDGET // len(kinds), "right")),
            )
            total = int(ends[high - 1]) - done
            chunk = slice(low, high)
            low = high
            if total == 0:
                continue
            chunk_masks = masks[chunk]
            # Row-major nonzero is the stream order: mask, then split.
            split_row, split_col = np.nonzero(valid[chunk])
            left_mask = left[chunk][split_row, split_col]
            right_mask = right[chunk][split_row, split_col]
            width = per_split[chunk][split_row, split_col]
            split_of = np.repeat(np.arange(width.shape[0]), width)
            within = np.arange(total) - np.repeat(np.cumsum(width) - width, width)
            pair, algo = np.divmod(within, n_algos[chunk][split_row, split_col][split_of])
            left_index, right_index = np.divmod(pair, count[right_mask][split_of])
            left_entry = first[left_mask][split_of] + left_index
            right_entry = first[right_mask][split_of] + right_index

            left_cost = entry_cost[left_entry]
            right_cost = entry_cost[right_entry]
            left_rows = rows[left_mask]
            right_rows = rows[right_mask]
            candidates = np.empty((total, len(kinds)), dtype=np.float64)
            for metric, kind in enumerate(kinds):
                lc = left_cost[:, metric]
                rc = right_cost[:, metric]
                if kind == "io":
                    out_rows = rows[chunk_masks][split_row]
                    candidates[:, metric] = (lc + rc) + out_rows[split_of]
                elif kind == "time":
                    operators = np.stack(
                        [left_rows * right_rows, HASH_FACTOR * (left_rows + right_rows)],
                        axis=1,
                    )
                    candidates[:, metric] = (lc + rc) + operators[split_of, algo]
                else:  # buffer
                    operators = np.stack(
                        [np.full(width.shape[0], BNL_BLOCK_TUPLES), right_rows], axis=1
                    )
                    candidates[:, metric] = np.maximum(
                        np.maximum(lc, rc), operators[split_of, algo]
                    )

            accepted, survivors = _pareto_filter(candidates, per_mask[chunk])
            kept += accepted
            owner = split_row[split_of[survivors]]
            stored = np.bincount(owner, minlength=chunk_masks.shape[0])
            count[chunk_masks] = stored
            first[chunk_masks] = entry_cost.shape[0] + np.cumsum(stored) - stored
            entry_cost = np.concatenate([entry_cost, candidates[survivors]])
            entry_ptr = np.concatenate(
                [
                    entry_ptr,
                    np.stack(
                        [
                            chunk_masks[owner],
                            left_entry[survivors],
                            right_entry[survivors],
                            algo[survivors],
                        ],
                        axis=1,
                    ),
                ]
            )

    stats.splits_considered = splits
    stats.plans_considered = considered
    stats.plans_kept = kept
    stats.table_entries = int(np.count_nonzero(count))
    stats.stored_plans = entry_cost.shape[0]
    full_mask = query.all_tables_mask
    start = int(first[full_mask])
    costs = entry_cost.tolist()
    pointers = entry_ptr.tolist()
    memo: dict[int, Plan] = dict(enumerate(scans))

    def build(entry: int) -> Plan:
        """Materialize frontier entry ``entry`` from the flat state."""
        plan = memo.get(entry)
        if plan is None:
            mask, left_entry, right_entry, algo = pointers[entry]
            plan = memo[entry] = JoinPlan(
                mask=mask,
                rows=float(rows[mask]),
                cost=tuple(costs[entry]),
                order=None,
                left=build(left_entry),
                right=build(right_entry),
                algorithm=ALL_JOIN_ALGORITHMS[algo],
            )
        return plan

    return [build(entry) for entry in range(start, start + int(count[full_mask]))]
