"""Vectorized array-native enumeration core — the ``vecdp`` backend.

A level-at-a-time reformulation of the worker DP where the state lives in
contiguous numpy arrays indexed by table-set bitmask instead of per-entry
Python objects, selected via
:attr:`repro.config.OptimizerSettings.backend`.  It searches exactly the
same plan space under exactly the same partition constraints as the
``legacy`` and ``fastdp`` cores and produces the same plans and worker
statistics; the differential-testing oracle in :mod:`repro.testing`
enforces the equivalence plan-for-plan.

Every partition — constrained or not — runs the same array path.  The
admissible masks are Algorithm 4's per-group Cartesian product
(:func:`~repro.core.partitioning.group_admissible_subsets`), built as
one ``int32`` array sorted by popcount, each level a view of it (at p = 2
a partition keeps three quarters of the masks — 196,590 of 262,125 at 18
tables — so enumerating them one by one costs more than the DP), and
``rows`` is filled for the whole dense state: values of masks that never
store an entry are dead, every read is gated on a stored entry.

Per process and per run.  What a partition enumerates depends on its shape
only — ``(n, plan space, constraints)``, the constraints sitting on table
positions — so that part, the *skeleton* (:class:`_Skeleton`), is built
once per process and kept, keyed by shape and by the bushy rows a sweep
takes: the level masks (4 bytes per admissible mask), the linear
constraints' ``after`` masks (``n`` values), the bushy half-tables and every
bushy level's left-operand blocks, 1 byte a cell up to 8 tables, 2 up to
16, 4 above, widened to ``intp`` as each block is yielded.  Every array
is read-only and an entry never changes after insertion.  The cache keeps
at most :data:`_SKELETON_BYTES` per process, least recently used out first;
a larger skeleton is built for its run only.  A run builds only the query's
part: ``rows`` and the scans, ``neighbours``, ``cost`` and ``bp``.

Only the block-nested-loop and hash operators are costed.  Without
interesting orders a sort-merge candidate is never kept: the hash candidate
of the same operands comes right before it and costs no more in any metric
(see :func:`_run_single_vec`), so vecdp evaluates no transcendental —
every per-candidate operation is a pure elementwise IEEE add/mul/max.

Flat-array state layout (single objective), bytes per mask of ``2**n``:

* ``cost`` (8) — dense ``float64`` indexed by table-set bitmask; ``+inf``
  means "no stored plan" (the dict-miss of the scalar cores);
* ``rows`` (8) — estimated cardinality per mask, a vectorized replication
  of the cardinality estimator over the dense state;
* ``neighbours`` (8) — per mask the OR of its tables' join-graph adjacency
  masks, filled like ``rows`` by ``n`` strided in-place ORs: an equi
  predicate straddles ``(left, right)`` iff ``neighbours[right] & left``
  (only singleton masks are filled, and read, in the linear space, as are
  the constraints' ``after`` sets (8): both are zero-filled allocations
  the linear sweep writes only at the singletons);
* ``bp`` (4) — back-pointers from which plan trees are materialized once,
  at the end: ``right << 1 | algo``, the right operand's mask (the left
  one is ``mask ^ right``) and an index into ``ALL_JOIN_ALGORITHMS``
  (vecdp keeps only block-nested-loop and hash, 0 and 1); a linear right
  operand is a singleton, so there its bit number stands in and ``bp``
  is ``int8`` (1);
* the level masks (4 per admissible mask, ``int32``), kept per process
  with the rest of the skeleton.

None of this shrinks with the number of partitions p: a constraint removes
masks from the levels (a quarter per linear constraint) and cells from the
rectangles, not slots from the dense arrays.  Above the dense state a run
holds the per-level ``best`` / ``win_*`` vectors (13 bytes per mask of the
widest level) and one operand block of bounded size (below).

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
it in blocks of bounded size (:meth:`_Splits.blocks`) and carries the
scalar loop's running minimum — per-level ``best`` / ``win_right`` /
``win_algo`` vectors, one slot per mask — from block to block.  Within a
block the candidate order is the scalar one (splits ascending, operators
in ``ALL_JOIN_ALGORITHMS`` order, ``+inf`` in inapplicable cells): the
exclusive running minimum before a cell is the carried ``best`` folded
with the block's earlier columns, counting strict improvements against it
recovers ``plans_kept``, ``argmin`` lands on the *first* split achieving
the block minimum, and the block's winner replaces the carried one only
where it is strictly cheaper — the strict-``<`` first-wins tie rule of
the scalar cores.  Linear rectangles are tall and narrow (48,620 × 9 at 18
tables), so they are cut into row tiles of at most ``_LINEAR_TILE_ROWS``
masks and each tile into runs of *columns*, a few bit-peels per block and
exactly one once a tile has ``_BLOCK_CELLS`` masks — every operation is
then contiguous and
the short-axis ``accumulate`` / ``argmin`` (≈ 10 ns a cell, unvectorisable
over rows of ≤ 18) drop out.  Bushy rectangles are short and wide (up to
``2**size − 2`` splits), so they are cut by *rows*, runs of about
``_BUSHY_BLOCK_CELLS`` cells of masks with one split count (a level's
masks are ordered by it): a mask's split list stays in one block and no
cell is padding.  A bushy split ``(L, R)`` and its
mirror ``(R, L)`` sit at reflected positions of that list and cost the
same under the time and io metrics, so those sweeps take only the first
half of each row — ``2**(size − 1) − 1`` splits — and count each split
twice; the buffer metric's hash operator costs its right (build) side's
rows, so that sweep keeps whole rows.  The budgets are small because a
block's dozen ``float64`` temporaries should stay in cache and out of the
peak: whole-level rectangles (3.5 MB a temporary at 18 tables) made the
sweep memory-bound, and whole-level columns (389 KB a temporary) still
put the peak at a multiple of the widest level.

Multi-objective frontiers (α = 1 only) keep their state in CSR form:
``first``/``count`` are dense per-mask arrays pointing into one flat
``(entries, K)`` cost array, and every entry carries ``(left entry, right
entry, algorithm)`` back-pointers.  A level's candidate stream is
generated by ``repeat``/``cumsum`` index arithmetic over the same operand
blocks (whole rows), in the scalar order (mask → split → left entry →
right entry → operator), and pruned by one order-faithful weak-Pareto filter batched
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

numpy is a package dependency (``numpy>=2``: ``bitwise_count`` turns a
linear back-pointer's singleton into its bit number).  The worker imports
this module only when a partition runs on it — resolving ``AUTO`` and
fingerprinting do not — so a process that only serves cache hits never
pays numpy's import time and memory.
"""

from __future__ import annotations

from math import inf

import numpy as np

from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.core.constraints import constraint_groups
from repro.core.fastdp import _adjacency_masks
from repro.core.partitioning import _constraints_by_group, group_admissible_subsets
from repro.core.worker import (
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

#: Cells per linear operand block of the single-objective sweep
#: (:meth:`_Splits.blocks`): small enough that a block's dozen float64
#: temporaries stay cache-resident (sweep of 2¹¹…2¹⁵ in CHANGES.md).  A
#: linear block is a run of a tile's columns, one column once the tile has
#: this many masks.
_BLOCK_CELLS = 1 << 12

#: Cells per bushy operand block, runs of whole (half) rows: fewer blocks
#: run fewer per-block class loops, and a linear sweep given this budget ran
#: slower (interleaved sweep of 2¹²…2¹⁵ in CHANGES.md).
_BUSHY_BLOCK_CELLS = 1 << 13

#: Bytes of skeletons (:class:`_Skeleton`) one process keeps, least recently
#: used out first: the spine's largest shapes fit at p ≤ 2 (linear 18, 1.00 MiB
#: of level masks at p = 1; bushy 12, 0.58 MiB, mostly ``uint16`` half-row
#: operands), bushy 14 at p = 1 (5.1 MiB) is built per run and not kept.
_SKELETON_BYTES = 1 << 22

#: Masks per linear row tile: a wider level is cut into tiles, so no linear
#: block exceeds this many cells — whole-level columns made the widest level
#: set a run's peak memory (interleaved sweep of 2¹²…2¹⁶ in CHANGES.md).
_LINEAR_TILE_ROWS = 1 << 13

#: Largest query vecdp takes.  Level masks are ``int32`` and sorted by the
#: key ``(popcount << n) | mask``, whose largest value ``(n + 1)·2**n − 1``
#: fits up to 26 tables; the dense ``2**n`` state gives out long before.
_MAX_TABLES = 26

#: Dispatch tag of the vectorized cost formulas, per metric type (the three
#: :func:`~repro.cost.metrics.make_metrics` builds).
_METRIC_KINDS = {ExecutionTimeMetric: "time", BufferSpaceMetric: "buffer", OutputRowsMetric: "io"}

#: Columns per block of the Pareto filter (block² comparisons per mask),
#: and candidates per cell of its first pass.
_PARETO_BLOCK = 256
_PARETO_CELL = 32


def optimize_partition_vecdp(
    query: Query, constraints: tuple, settings: OptimizerSettings, stats: WorkerStats
) -> list[Plan]:
    """One plan-space partition on the array-native core: its plans, with
    ``stats`` filled in.

    The worker's :func:`repro.core.worker.optimize_partition` calls it, and
    routes here only settings covered by this core's entry in
    :data:`repro.core.worker.BACKEND_CAPABILITIES`.
    """
    stats.backend_used = Backend.VECDP.value
    # The frontier keeps every split, and the buffer metric's hash costs the
    # build side: both take whole bushy rows, the time and io sweeps half.
    whole = settings.is_multi_objective or settings.objectives[0] is Objective.BUFFER_SPACE
    cut = None if settings.plan_space is PlanSpace.LINEAR else "whole" if whole else "half"
    skeleton = _skeleton(query.n_tables, constraints, settings.plan_space, cut)
    stats.admissible_results = skeleton.admissible
    run = _run_frontier_vec if settings.is_multi_objective else _run_single_vec
    # Genuine candidate costs may overflow to +inf (the scalar cores
    # produce the same IEEE inf silently); placeholder cells add inf to
    # finite garbage.  Neither is an error worth a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        return run(query, _Splits(query, skeleton), CostModel(query, settings), stats)


# ------------------------------------------------------------ shared helpers


def _levels(n: int, constraints: tuple, plan_space: PlanSpace) -> dict:
    """Per-level admissible-mask arrays.

    Algorithm 4: the Cartesian product of every group's admissible subsets
    (:func:`~repro.core.partitioning.group_admissible_subsets`, the
    definition the scalar cores expand too), built as one ``int32`` array of
    keys ``(popcount << n) | mask`` and sorted once in place, so a level is a
    view of it with its masks ascending — for gather locality; the order
    does not change results, every level mask is costed independently from
    strictly smaller levels.  Groups hold disjoint bits, so adding a group's
    ``subset + (popcount << n)`` ORs the masks and sums their popcounts.
    """
    if n > _MAX_TABLES:
        raise ValueError(f"vecdp takes at most {_MAX_TABLES} tables, got {n}")
    groups = constraint_groups(n, plan_space)
    masks = np.zeros(1, dtype=np.int32)
    for group, constraint in zip(groups, _constraints_by_group(groups, constraints)):
        keys = [sub + (sub.bit_count() << n) for sub in group_admissible_subsets(group, constraint)]
        masks = (masks[:, None] + np.asarray(keys, dtype=np.int32)).ravel()
    masks.sort()
    ends = np.searchsorted(masks, np.arange(n + 2, dtype=np.int32) << n).tolist()
    masks &= (1 << n) - 1
    return {size: masks[ends[size] : ends[size + 1]] for size in range(2, n + 1)}


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


# ------------------------------------------------------------------- skeleton


#: The process's skeletons by ``(n, plan space, constraints, cut)``, least
#: recently used first.  Entries never change after insertion and every access
#: is one atomic dict operation, on the dict or on a snapshot of it: threads
#: need no lock (two that build one key both get a correct skeleton, the last
#: inserted stays) and a forked pool worker inherits a consistent cache.
_skeletons: dict = {}


def _skeleton(n: int, constraints: tuple, plan_space: PlanSpace, cut) -> "_Skeleton":
    """The partition's skeleton: this process's cached one, or a new one,
    kept if it fits :data:`_SKELETON_BYTES` (evicting the least recently
    used)."""
    key = (n, plan_space, constraints, cut)
    skeleton = _skeletons.pop(key, None) or _Skeleton(n, constraints, plan_space, cut)
    if skeleton.nbytes <= _SKELETON_BYTES:
        _skeletons[key] = skeleton
        while sum(kept.nbytes for kept in list(_skeletons.values())) > _SKELETON_BYTES:
            _skeletons.pop(next(iter(list(_skeletons)), None), None)  # the oldest, if any
    return skeleton


class _Skeleton:
    """The query-independent part of one partition's DP.

    What a partition enumerates depends on ``(n, plan space, constraints)``
    only — constraints sit on table positions — so one skeleton serves every
    query of that shape: the level masks and ``admissible`` (the partition's
    ``admissible_results``), the linear constraints' ``after`` masks, and the
    bushy half-tables and operand blocks of one ``cut``: ``"half"`` rows (the
    time and io sweeps) or ``"whole"`` rows (the buffer sweep and the
    frontier DP).  Every array is read-only.

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

    A bushy level's masks are ordered by split count, then by ``(len_A,
    len_B)`` class, and ``spans[size]`` cuts them into runs ``(start, stop,
    width)`` of rows of one width, each of at most ``_BUSHY_BLOCK_CELLS``
    cells (or one row), so no cell is padding; every mask is costed
    independently, so the order changes no result.  ``blocks[size]`` holds
    each span's left operands in the narrowest unsigned dtype that holds a
    mask (1, 2 or 4 bytes a cell) when the whole skeleton fits
    :data:`_SKELETON_BYTES`; otherwise it is ``None`` and the blocks are
    generated per run.
    """

    def __init__(self, n: int, constraints: tuple, plan_space: PlanSpace, cut) -> None:
        self.linear = plan_space is PlanSpace.LINEAR
        self.constrained = self.linear and bool(constraints)
        self.cut = cut
        self.levels = _levels(n, constraints, plan_space)
        self.admissible = sum(masks.shape[0] for masks in self.levels.values())
        self.blocks, cells = None, 0
        if self.linear:
            self.after = np.asarray(linear_after_masks(n, constraints), dtype=np.int64)
            arrays = [self.after]
        else:
            self.halves = _bushy_halves(n, constraints)
            self.spans = {}
            for size, masks in self.levels.items():
                len_a, len_b = self.classes(masks)[2:]
                order = np.lexsort((len_a, len_a * len_b))  # split count, then class
                self.levels[size] = masks[order]
                splits = (len_a * len_b)[order] - 2
                self.spans[size] = _spans(np.maximum(1, splits >> (cut == "half")))
            arrays = [array for _, table, lengths in self.halves for array in (table, lengths)]
            cells = sum((b - a) * width for spans in self.spans.values() for a, b, width in spans)
        arrays += self.levels.values()
        cell = np.min_scalar_type((1 << n) - 1)
        self.nbytes = sum(array.nbytes for array in arrays) + cells * cell.itemsize
        if not self.linear and self.nbytes <= _SKELETON_BYTES:
            self.blocks = {
                size: [left.astype(cell) for left in self.generate(size)] for size in self.levels
            }
            arrays += [left for lefts in self.blocks.values() for left in lefts]
        for array in arrays:
            array.flags.writeable = False

    def classes(self, masks):
        """Each mask's rows of the two half-tables, and its operand counts
        there."""
        (_, _, lengths_a), (_, _, lengths_b) = self.halves
        rows_a, rows_b = [(masks >> low) & (table.shape[0] - 1) for low, table, _ in self.halves]
        return rows_a, rows_b, lengths_a[rows_a], lengths_b[rows_b]

    def generate(self, size: int):
        """Yield each span's left operands, ``intp``, in split order and
        padded with left operand 0 — per ``(len_A, len_B)`` class of a
        span's masks, a run of rows, one broadcast ``table_A[…][:, :, None]
        | table_B[…][:, None, :]``, minus the first column (the mask itself)
        and the last (0); a ``"half"`` row keeps its first ``T/2 − 1``
        splits."""
        (_, table_a, _), (_, table_b, _) = self.halves
        rows_a, rows_b, len_a, len_b = self.classes(self.levels[size])
        changes = np.flatnonzero((len_a[1:] != len_a[:-1]) | (len_b[1:] != len_b[:-1])) + 1
        edges = [0, *changes.tolist(), len_a.shape[0]]
        for start, stop, width in self.spans[size]:
            left = np.zeros((stop - start, width), dtype=np.intp)
            for low, high in zip(edges, edges[1:]):
                low, high = max(low, start), min(high, stop)
                if low < high:
                    in_a, in_b = int(len_a[low]), int(len_b[low])
                    rect = table_a[rows_a[low:high], :in_a, None]
                    rect = rect | table_b[rows_b[low:high], None, :in_b]
                    count = (in_a * in_b - 2) >> (self.cut == "half")
                    part = rect.reshape(high - low, -1)[:, 1 : 1 + count]
                    left[low - start : high - start, :count] = part
            yield left


def _bushy_halves(n: int, constraints: tuple) -> list:
    """``(low bit, padded operand table, lengths)`` per half of the bushy
    constraint groups (:class:`_Skeleton`): 64 + 64 ``bushy_operands`` calls
    at 12 tables, none per mask."""
    groups = _bushy_groups(n, constraints)
    # Groups are consecutive bit ranges; cut where the halves balance.
    ends = [group.group_mask.bit_length() for group in groups]
    shift = min(ends, key=lambda end: abs(2 * end - n))
    cut = ends.index(shift) + 1
    halves = []
    for low, bits, half in ((0, shift, groups[:cut]), (shift, n - shift, groups[cut:])):
        lists = [bushy_operands(pattern << low, half) for pattern in range(1 << bits)]
        lengths = np.asarray([len(operands) for operands in lists])
        table = np.zeros((1 << bits, int(lengths.max())), dtype=np.int64)
        for pattern, operands in enumerate(lists):
            table[pattern, : len(operands)] = operands
        halves.append((low, table, lengths))
    return halves


def _spans(widths) -> list[tuple[int, int, int]]:
    """Runs ``(start, stop, width)`` of a level's rows, ``widths``
    ascending: runs of rows of one width, each of at most
    ``_BUSHY_BLOCK_CELLS`` cells (or one row)."""
    spans, start = [], 0
    while start < widths.shape[0]:
        width = int(widths[start])
        end = int(np.searchsorted(widths, width, "right"))
        spans.append((start, min(end, start + max(1, _BUSHY_BLOCK_CELLS // width)), width))
        start = spans[-1][1]
    return spans


class _Splits:
    """The ``(masks, splits)`` operand rectangles of one partition's run:
    its :class:`_Skeleton` and the query's ``neighbours``.

    Shared by both DPs: both take a level's rectangle block by block
    (:meth:`blocks`), the frontier DP a linear level as one block
    (``whole``).  ``neighbours[mask]`` is the OR of the adjacency
    masks of ``mask``'s tables, so a predicate straddles ``(left, right)``
    iff ``neighbours[right] & left`` (equally ``neighbours[left] & right``)
    is non-zero — the scalar cores' ``_connected`` as one gather.  In the
    linear space the right operand is always a singleton, so only the
    singleton *masks* are filled, and the constraints' "must be joined
    after" sets are keyed the same way — the rectangles hold bit values,
    not bit numbers.
    """

    def __init__(self, query: Query, skeleton: _Skeleton) -> None:
        self.skeleton = skeleton
        self.linear = skeleton.linear
        self.constrained = skeleton.constrained
        n = query.n_tables
        self.neighbours = np.zeros(1 << n, dtype=np.int64)
        if self.linear:
            bit_values = np.int64(1) << np.arange(n, dtype=np.int64)
            self.neighbours[bit_values] = _adjacency_masks(query)
            self.after = np.zeros(1 << n, dtype=np.int64)
            self.after[bit_values] = skeleton.after
            return
        for number, adjacent in enumerate(_adjacency_masks(query)):
            view = self.neighbours.reshape(1 << (n - 1 - number), 2, 1 << number)
            view[:, 1, :] |= adjacent

    def blocks(self, size: int, whole: bool = False):
        """Yield the level's operand rectangle as ``(span, left, right)``
        blocks, a mask's blocks in split order (``whole``: a linear level as
        one block).

        ``span`` is the slice of the skeleton's level masks a block's rows
        belong to; operands are ``intp`` gather indices whatever the dtype
        of the masks or of the cached blocks.  Linear: every mask has
        exactly ``size`` candidate splits, its set bits in ascending order
        — the scalar bit-peel order; the rectangle is tall and narrow, so it
        is cut into row tiles of at most ``_LINEAR_TILE_ROWS`` masks and a
        tile into runs of *columns* of about ``_BLOCK_CELLS`` cells (all of
        them while the level is small, one bit-peel per block once a tile
        has ``_BLOCK_CELLS`` masks), no block above ``max(_LINEAR_TILE_ROWS,
        _BLOCK_CELLS)`` cells.  Bushy: the skeleton's spans, runs of whole
        (or half) rows (:meth:`_Skeleton.generate`).

        Every group's operand list runs in descending order and is closed
        under complement, which reverses it, so in a product of ``T``
        operands the mirror ``(R, L)`` of position ``k`` sits at ``T − 1 −
        k``: the first half of a row holds one split of each mirrored pair,
        the one that comes first.  A ``"half"`` skeleton yields only that
        half, ``T/2 − 1`` splits a row, for the time and io sweeps, whose
        operators cost a split and its mirror alike; the buffer metric's
        hash costs its build (right) side's rows, so that sweep takes whole
        rows.
        """
        skeleton = self.skeleton
        masks = skeleton.levels[size]
        if self.linear:
            height = masks.shape[0] if whole else min(masks.shape[0], _LINEAR_TILE_ROWS)
            step = size if whole else max(1, _BLOCK_CELLS // height)
            for start in range(0, masks.shape[0], height):
                span = slice(start, min(start + height, masks.shape[0]))
                tile = masks[span].astype(np.intp)
                remaining = tile.copy()
                for first in range(0, size, step):
                    right = np.empty((tile.shape[0], min(step, size - first)), dtype=np.intp)
                    for column in range(right.shape[1]):
                        np.bitwise_and(remaining, -remaining, out=right[:, column])
                        remaining ^= right[:, column]
                    yield span, tile[:, None] ^ right, right
            return
        lefts = skeleton.generate(size) if skeleton.blocks is None else skeleton.blocks[size]
        for (start, stop, _), left in zip(skeleton.spans[size], lefts):
            left = left.astype(np.intp, copy=False)
            yield slice(start, stop), left, masks[start:stop, None] ^ left

    def unblocked(self, masks, right):
        """Cells whose singleton may be joined last (constrained linear)."""
        return (self.after[right] & masks[:, None]) == 0

    def equi(self, left, right):
        """Cells with a predicate straddling the operands (``_connected``);
        ``False`` on padded cells, whose left operand is 0."""
        return (self.neighbours[right] & left) != 0


# --------------------------------------------------------------------- single


def _run_single_vec(
    query: Query, source: _Splits, cost_model: CostModel, stats: WorkerStats
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
    kind = _METRIC_KINDS[type(cost_model.metrics[0])]
    algos_all = settings.use_all_join_algorithms
    state = 1 << n
    cost = np.full(state, inf, dtype=np.float64)
    # Back-pointers ``right << 1 | algo``: the right operand (the left one is
    # ``mask ^ right``) and the operator's index into ALL_JOIN_ALGORITHMS.
    # A linear right operand is a singleton: its bit number stands in, int8.
    bp = np.zeros(state, dtype=np.int8 if source.linear else np.int32)
    rows, scan_list = _prefill(query, cost_model)
    scans: dict[int, Plan] = {}
    for table_number, scan in enumerate(scan_list):
        scans[1 << table_number] = scan
        cost[1 << table_number] = scan.cost[0]

    # A bushy split and its mirror cost the same under every operator but the
    # buffer metric's hash (``max(pair, rows[right])``), and ``valid`` and
    # ``equi`` are symmetric: a mirror never strictly improves on the running
    # minimum and is never the first minimum, so those sweeps cost the first
    # split of each pair (a ``"half"`` skeleton) and count it twice.
    half = source.skeleton.cut == "half"
    stored = n
    # True while every admissible mask so far stored an entry — the normal
    # case, since the always-applicable BNL candidate only fails by
    # overflowing to +inf.  Lets linear levels skip the stored-operand scan:
    # a table no constraint blocks leaves an admissible, hence stored, set.
    all_stored = source.linear

    for size in range(2, n + 1):
        masks = source.skeleton.levels[size]
        if masks.shape[0] == 0:
            continue
        # The scalar loop's ``best`` and its winner, for every mask at once.
        best = np.full(masks.shape[0], inf, dtype=np.float64)
        win_right = np.zeros(masks.shape[0], dtype=np.int32)
        win_algo = np.zeros(masks.shape[0], dtype=np.int8)
        for span, left, right in source.blocks(size):
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
            stats.splits_considered += valid_total << half
            stats.plans_considered += (valid_total + 2 * equi_total) << half

            with_hash = kind != "io" and equi_total > 0
            if kind == "time":
                # In place, to hold fewer block-sized temporaries: ``+`` and
                # ``*`` commute exactly in IEEE arithmetic, so this is
                # ``base + l·r`` and ``base + HASH_FACTOR·(l + r)``.
                base = np.add(left_cost, right_cost, out=left_cost)
                left_rows, right_rows = rows[left], rows[right]
                if with_hash:
                    c_hash = left_rows + right_rows
                    c_hash *= HASH_FACTOR
                    c_hash += base
                c_bnl = np.multiply(left_rows, right_rows, out=right_rows)
                c_bnl += base
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
            stats.plans_kept += int(np.count_nonzero(c_bnl < before))
            # Strict: an earlier block's split keeps a tie, as in the scan.
            improved = block_best < carry
            if with_hash:
                stats.plans_kept += int(np.count_nonzero(c_hash < np.minimum(before, c_bnl)))
                np.copyto(win_algo[span], c_bnl[win] != block_best, where=improved)
            else:
                np.copyto(win_algo[span], 0, where=improved)
            np.copyto(win_right[span], right[win], where=improved)
            np.copyto(carry, block_best, where=improved)
        # Masks whose every candidate overflowed keep cost +inf: no entry.
        cost[masks] = best
        right = np.bitwise_count(win_right - 1) if source.linear else win_right
        bp[masks] = (right << 1) | win_algo
        level_entries = int(np.count_nonzero(best < inf))
        stored += level_entries
        if level_entries != masks.shape[0]:
            all_stored = False

    stats.table_entries = stored
    stats.stored_plans = stored
    full_mask = query.all_tables_mask
    if full_mask not in scans and not cost[full_mask] < inf:
        return []
    return [_build_single_vec(full_mask, cost, rows, bp, source.linear, scans)]


def _build_single_vec(mask: int, cost, rows, bp, linear: bool, memo: dict[int, Plan]) -> Plan:
    """Materialize the stored plan for ``mask`` from the packed arrays;
    ``memo`` starts out as the scans by singleton mask."""
    plan = memo.get(mask)
    if plan is None:
        right, algo = divmod(int(bp[mask]), 2)
        if linear:
            right = 1 << right
        plan = memo[mask] = JoinPlan(
            mask=mask,
            rows=float(rows[mask]),
            cost=(float(cost[mask]),),
            order=None,
            left=_build_single_vec(mask ^ right, cost, rows, bp, linear, memo),
            right=_build_single_vec(right, cost, rows, bp, linear, memo),
            algorithm=ALL_JOIN_ALGORITHMS[algo],
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
    query: Query, source: _Splits, cost_model: CostModel, stats: WorkerStats
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
    kinds = [_METRIC_KINDS[type(metric)] for metric in cost_model.metrics]
    rows, scans = _prefill(query, cost_model)

    singletons = np.int64(1) << np.arange(n, dtype=np.int64)
    first = np.zeros(1 << n, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    first[singletons] = np.arange(n)
    count[singletons] = 1
    entry_cost = np.asarray([scan.cost for scan in scans], dtype=np.float64)
    # Per-entry (mask, left entry, right entry, algorithm) columns.
    entry_ptr = np.zeros((n, 4), dtype=np.int64)
    entry_ptr[:, 0] = singletons

    for size in range(2, n + 1):
        level = source.skeleton.levels[size]
        if level.shape[0] == 0:
            continue
        # A linear level as one block, a bushy one by runs of whole rows.
        for span, left, right in source.blocks(size, whole=source.linear):
            masks = level[span]
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
                stats.plans_considered += int(pairs[equi].sum())  # the sort-merge candidates
            else:
                n_algos = np.ones_like(left)
            per_split = pairs * n_algos
            per_mask = per_split.sum(axis=1)
            stats.splits_considered += int(valid.sum())
            stats.plans_considered += int(per_mask.sum())

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
                stats.plans_kept += accepted
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
