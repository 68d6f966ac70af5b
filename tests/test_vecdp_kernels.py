"""vecdp's bulk kernels against their scalar specifications.

``_pareto_filter`` must make the decisions of the sequential
:class:`~repro.cost.pruning.ParetoPruning` fed the same candidate streams,
``_levels`` must admit the masks
:func:`~repro.core.partitioning.admissible_results_by_size` enumerates, and
``_Splits`` must list each level's operands exactly as
:func:`~repro.core.worker.split_source` — the sequence the scalar cores run
— does: order, width and padding, with ``equi`` the per-predicate straddle
test.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import threading
import tracemalloc
from math import comb, inf
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mpq import optimize_mpq
from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.core import vecdp
from repro.core.constraints import max_constraints, partition_constraints
from repro.core.fastdp import _adjacency_masks, _connected
from repro.core.partitioning import admissible_results_by_size
from repro.core.worker import WorkerStats, bushy_operands, optimize_partition, split_source
from repro.cost.pruning import ParetoPruning
from repro.query.generator import SteinbrunnGenerator
from repro.query.predicates import JoinPredicate
from repro.query.query import JoinGraphKind
from tests import test_fastdp as parity  # its grid and stats comparison


def _sequential(candidates, widths):
    """``ParetoPruning`` over one stream per mask: accepts, survivor indices."""
    policy = ParetoPruning()
    table: dict[int, list] = {}
    accepted = 0
    flat = 0
    for mask, width in enumerate(widths):
        for _ in range(width):
            entry = SimpleNamespace(cost=tuple(candidates[flat]), order=None, flat=flat)
            accepted += policy.consider(table, mask, entry.cost, None, lambda: entry)
            flat += 1
    return accepted, [entry.flat for mask in sorted(table) for entry in table[mask]]


@st.composite
def _streams(draw):
    """Several masks' candidate streams of unequal width in one batch.

    Values come from a small integer pool, so exact duplicates and
    per-coordinate ties are the norm; ``anti`` makes the metrics trade off so
    frontiers stay long enough to cross block borders; some real rows
    overflow to ``+inf`` in one or in every coordinate.  Widths sit on both
    sides of the filter's first-pass cell and of one and several blocks.
    """
    n_metrics = draw(st.sampled_from([2, 3]))
    block, cell = vecdp._PARETO_BLOCK, vecdp._PARETO_CELL
    borders = [cell - 1, cell, cell + 1, block - 1, block, block + 1]
    widths = draw(
        st.lists(
            st.sampled_from([0, 1, 2, 3, 7, 40, 511, 512, 513, 1100, *borders]),
            min_size=1,
            max_size=6,
        )
    )
    pool = draw(st.sampled_from([2, 4, 50, 5000]))
    anti = draw(st.booleans())
    inf_share = draw(st.sampled_from([0.0, 0.02, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(widths)
    rows = rng.integers(0, pool, size=(total, n_metrics)).astype(np.float64)
    if anti:
        rows[:, 1] = pool - rows[:, 0] + rng.integers(0, 2, size=total)
    rows[rng.random(total) < inf_share] = inf
    rows[rng.random((total, n_metrics)) < inf_share / 4] = inf
    return rows, widths


class TestParetoFilter:
    @settings(max_examples=60, deadline=None)
    @given(_streams())
    def test_matches_sequential_pruning(self, streams):
        candidates, widths = streams
        accepted, survivors = vecdp._pareto_filter(
            candidates, np.asarray(widths, dtype=np.int64)
        )
        expected_accepted, expected_survivors = _sequential(candidates.tolist(), widths)
        assert accepted == expected_accepted
        assert survivors.tolist() == expected_survivors

    def test_all_overflowed_stream_keeps_its_first_row(self):
        """Real ``+inf`` rows count like any other; only padding is inert."""
        candidates = np.full((5, 2), inf)
        accepted, survivors = vecdp._pareto_filter(candidates, np.asarray([2, 3]))
        assert accepted == 2
        assert survivors.tolist() == [0, 2]


def _every_partition(n_tables: int, space: PlanSpace):
    """``(partition_id, n_partitions, constraints)`` for every ``p``."""
    for n_constraints in range(max_constraints(n_tables, space) + 1):
        n_partitions = 1 << n_constraints
        for partition_id in range(n_partitions):
            yield partition_id, n_partitions, partition_constraints(
                n_tables, partition_id, n_partitions, space
            )


class TestLevels:
    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("n_tables", range(2, 11))
    def test_equals_scalar_enumeration_for_every_partition(self, space, n_tables):
        for partition_id, n_partitions, constraints in _every_partition(n_tables, space):
            levels = vecdp._levels(n_tables, constraints, space)
            expected = admissible_results_by_size(n_tables, constraints, space)
            assert {size: masks.tolist() for size, masks in levels.items()} == {
                size: sorted(masks) for size, masks in expected.items()
            }
            assert all(masks.dtype == np.int32 for masks in levels.values())
            skeleton = vecdp._Skeleton(n_tables, constraints, space, _cut(space))
            assert skeleton.admissible == sum(map(len, expected.values()))

    def test_refuses_queries_whose_sort_key_would_overflow_int32(self):
        """``(popcount << n) | mask`` fits ``int32`` up to 26 tables; the
        guard fires before anything is allocated."""
        assert (vecdp._MAX_TABLES + 1) << vecdp._MAX_TABLES <= np.iinfo(np.int32).max + 1
        assert (vecdp._MAX_TABLES + 2) << (vecdp._MAX_TABLES + 1) > np.iinfo(np.int32).max + 1
        with pytest.raises(ValueError, match="at most 26 tables"):
            vecdp._levels(vecdp._MAX_TABLES + 1, (), PlanSpace.LINEAR)

    def test_refuses_before_anything_is_cached(self, monkeypatch):
        cache = _cold(monkeypatch)
        query = SteinbrunnGenerator(5).query(vecdp._MAX_TABLES + 1, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError, match="at most 26 tables"):
            optimize_partition(query, 0, 1, OptimizerSettings(backend=Backend.VECDP))
        assert not cache


BUSHY = OptimizerSettings(plan_space=PlanSpace.BUSHY)


def _cut(space: PlanSpace, half: bool = False):
    """The skeleton cut a single-objective sweep takes in ``space``."""
    if space is PlanSpace.LINEAR:
        return None
    return "half" if half else "whole"


def _source(query, constraints, space: PlanSpace, cut) -> "vecdp._Splits":
    """A run's operand source over the process's skeleton of that shape."""
    return vecdp._Splits(query, vecdp._skeleton(query.n_tables, constraints, space, cut))


def _cold(monkeypatch) -> dict:
    """An empty skeleton cache for the test's duration."""
    cache = {}
    monkeypatch.setattr(vecdp, "_skeletons", cache)
    return cache


def _rect(source, size: int):
    """The level's whole ``(left, right)`` rectangle, rows padded with left
    operand 0 to the widest: linear, the one ``whole`` block; bushy, the
    blocks stacked (a ``"whole"`` skeleton's hold every split)."""
    lefts = [left for _, left, _ in source.blocks(size, whole=True)]
    width = max(left.shape[1] for left in lefts)
    left = np.concatenate([np.pad(block, ((0, 0), (0, width - block.shape[1]))) for block in lefts])
    return left, source.skeleton.levels[size][:, None] ^ left


def _scalar_rect(n_tables, constraints, space, masks, half: bool = False):
    """``(left, right)`` rows per mask from :func:`split_source`.

    Bushy: the partition's splits (``half``: the first half of each mask's),
    zero-padded.  Linear: every bit-peel of the mask — the unconstrained
    source — since a linear rectangle keeps the cells a constraint blocks;
    :func:`_assert_linear_cells_admitted` checks which of them the
    constrained source admits."""
    splits_of = split_source(
        n_tables, constraints if space is PlanSpace.BUSHY else (), space
    )
    rows = [splits_of(mask) for mask in masks]
    if half:
        rows = [row[: len(row) // 2] for row in rows]
    width = max(1, *map(len, rows))
    rows = [row + [(0, mask)] * (width - len(row)) for mask, row in zip(masks, rows)]
    return [[left for left, _ in row] for row in rows], [[right for _, right in row] for row in rows]


def _assert_linear_cells_admitted(source, n_tables, constraints, masks, left, right):
    """The cells ``source.after`` leaves open are the constrained
    :func:`split_source`'s splits, in its order."""
    splits_of = split_source(n_tables, constraints, PlanSpace.LINEAR)
    after = source.after.tolist()
    for mask, lefts, rights in zip(masks, left, right):
        admitted = [
            (left_mask, right_mask)
            for left_mask, right_mask in zip(lefts, rights)
            if not after[right_mask] & mask
        ]
        assert admitted == splits_of(mask)


def _assert_rectangles_match_spec(n_tables: int, constraints: tuple):
    """Every level's rectangle is ``split_source``'s splits, padded."""
    query = SteinbrunnGenerator(5).query(n_tables, JoinGraphKind.CHAIN)
    source = _source(query, constraints, PlanSpace.BUSHY, "whole")
    for size, masks in source.skeleton.levels.items():
        if masks.shape[0] == 0:
            continue
        left, right = _rect(source, size)
        assert left.dtype == right.dtype == np.intp
        assert (left.tolist(), right.tolist()) == _scalar_rect(
            n_tables, constraints, PlanSpace.BUSHY, masks.tolist()
        )


class TestBushyRectangles:
    @pytest.mark.parametrize("n_tables", range(2, 11))
    def test_equal_bushy_operands_for_every_partition(self, n_tables):
        for _, _, constraints in _every_partition(n_tables, PlanSpace.BUSHY):
            _assert_rectangles_match_spec(n_tables, constraints)

    def test_equal_bushy_operands_serial_12_tables(self):
        _assert_rectangles_match_spec(12, ())

    @pytest.mark.parametrize("n_partitions", [1, 2])
    def test_split_listing_stays_out_of_the_per_mask_loop(self, monkeypatch, n_partitions):
        """``bushy_operands`` only fills the two half-tables: one call per
        bit pattern of a half (8 + 64 at 9 tables), never one per admissible
        mask (502 serially) — and only while the skeleton is built: a warm
        run of a *different* query of that size makes none."""
        calls = []

        def counting(mask, groups):
            calls.append(mask)
            return bushy_operands(mask, groups)

        _cold(monkeypatch)
        monkeypatch.setattr(vecdp, "bushy_operands", counting)
        settings = BUSHY.replace(backend=Backend.VECDP)
        query = SteinbrunnGenerator(5).query(9, JoinGraphKind.STAR)
        result = optimize_partition(query, 0, n_partitions, settings)
        assert 0 < len(calls) <= 8 + 64 < result.stats.admissible_results
        calls.clear()
        other = SteinbrunnGenerator(6).query(9, JoinGraphKind.CYCLE)
        assert optimize_partition(other, 0, n_partitions, settings).plans
        assert calls == []


@st.composite
def _queries_with_extra_predicates(draw):
    """A star / chain / cycle query plus up to six arbitrary extra edges."""
    n_tables = draw(st.integers(2, 8))
    kind = draw(st.sampled_from([JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE]))
    query = SteinbrunnGenerator(draw(st.integers(0, 99))).query(n_tables, kind)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_tables - 1), st.integers(0, n_tables - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=6,
        )
    )
    extras = tuple(JoinPredicate(left, "c0", right, "c0", 0.5) for left, right in pairs)
    query = dataclasses.replace(query, predicates=query.predicates + extras)
    n_partitions = 1 << draw(st.integers(0, max_constraints(n_tables, PlanSpace.BUSHY)))
    return query, draw(st.integers(0, n_partitions - 1)), n_partitions


class TestEqui:
    @settings(max_examples=60, deadline=None)
    @given(_queries_with_extra_predicates())
    def test_equals_the_per_predicate_straddle_test(self, drawn):
        query, partition_id, n_partitions = drawn
        n = query.n_tables
        constraints = partition_constraints(n, partition_id, n_partitions, PlanSpace.BUSHY)
        source = _source(query, constraints, PlanSpace.BUSHY, "whole")
        adjacency = _adjacency_masks(query)
        for size, masks in source.skeleton.levels.items():
            if masks.shape[0] == 0:
                continue
            left, right = _rect(source, size)
            equi = source.equi(left, right)
            for row, (lefts, rights) in enumerate(zip(left.tolist(), right.tolist())):
                for column, (left_mask, right_mask) in enumerate(zip(lefts, rights)):
                    expected = left_mask != 0 and any(
                        predicate.connects(left_mask, right_mask)
                        for predicate in query.predicates
                    )
                    assert bool(equi[row, column]) is expected
                    if left_mask:
                        assert _connected(left_mask, right_mask, adjacency) is expected


class TestBlocks:
    """``_Splits.blocks`` cuts the rectangle, it never reorders it; ``half``
    keeps the first half of each bushy row.  A bushy skeleton orders a
    level's masks by split count, whatever its cut, and a block's rows all
    have its width: no cell of a bushy block is padding."""

    @settings(max_examples=60, deadline=None)
    @given(
        _queries_with_extra_predicates(),
        st.sampled_from(list(PlanSpace)),
        st.sampled_from([1, 2, 3, 5, 17, 64, 1 << 12]),
        st.sampled_from([1, 3, 17, 64, 1 << 13]),
        st.booleans(),
    )
    def test_blocks_tile_the_rectangle_in_split_order(self, drawn, space, cells, rows, half):
        query, partition_id, n_partitions = drawn
        n = query.n_tables
        constraints = partition_constraints(n, partition_id, n_partitions, space)
        half &= space is PlanSpace.BUSHY
        with pytest.MonkeyPatch.context() as patch:
            _patch_budgets(patch, cells, rows)
            whole = _source(query, constraints, space, _cut(space))
            source = _source(query, constraints, space, _cut(space, half))
            for size, masks in source.skeleton.levels.items():
                assert masks.tolist() == whole.skeleton.levels[size].tolist()
                if masks.shape[0] == 0:
                    continue
                full_left, full_right = (side.tolist() for side in _rect(whole, size))
                assert (full_left, full_right) == _scalar_rect(n, constraints, space, masks.tolist())
                if space is PlanSpace.LINEAR:
                    _assert_linear_cells_admitted(
                        source, n, constraints, masks.tolist(), full_left, full_right
                    )
                left, right = _scalar_rect(n, constraints, space, masks.tolist(), half)
                splits_of = split_source(n, constraints, space)
                # The current tile's first row and height; the next block's column.
                row = height = column = 0
                for span, block_left, block_right in source.blocks(size):
                    if column == len(left[0]):  # the tile is done: the next lies below
                        row, column = row + height, 0
                    height, width = block_left.shape
                    assert block_left.dtype == block_right.dtype == np.intp
                    assert block_right.shape == (height, width)
                    assert (span.start, span.stop) == (row, row + height)
                    if space is PlanSpace.LINEAR:  # row tiles, each in runs of columns
                        columns = slice(column, column + width)
                        column += width
                        assert height <= rows and block_left.size <= max(cells, rows)
                        assert block_left.tolist() == [splits[columns] for splits in left[span]]
                        assert block_right.tolist() == [splits[columns] for splits in right[span]]
                        continue
                    # Runs of whole rows, or of their first halves, of one width.
                    column = len(left[0])
                    counts = {len(splits_of(mask)) for mask in masks[span].tolist()}
                    assert len(counts) == 1 and width == max(1, counts.pop() >> half)
                    assert block_left.size <= max(cells, width)
                    assert block_left.tolist() == [splits[:width] for splits in left[span]]
                    assert block_right.tolist() == [splits[:width] for splits in right[span]]
                assert (row + height, column) == (len(left), len(left[0]))


class TestMirroredSplits:
    """A bushy split ``(L, R)`` and its mirror ``(R, L)`` sit at reflected
    positions of a mask's split list, with the same ``equi`` cell, so the
    half blocks the time and io sweeps take hold one split of each pair."""

    @settings(max_examples=25, deadline=None)
    @given(_queries_with_extra_predicates(), st.sampled_from([1, 3, 64, 1 << 13]))
    def test_half_blocks_hold_the_first_of_each_mirrored_pair(self, drawn, cells):
        query = drawn[0]
        n = query.n_tables
        for __, n_partitions, constraints in _every_partition(n, PlanSpace.BUSHY):
            if n_partitions > 16:
                break
            splits_of = split_source(n, constraints, PlanSpace.BUSHY)
            source = _source(query, constraints, PlanSpace.BUSHY, "whole")
            for size, masks in source.skeleton.levels.items():
                if masks.shape[0] == 0:
                    continue
                for mask in masks.tolist():
                    splits = splits_of(mask)  # position k mirrors (T − 3) − k
                    assert [(right, left) for left, right in reversed(splits)] == splits
                left, right = _rect(source, size)
                equi = source.equi(left, right).tolist()
                for row, mask in zip(equi, masks.tolist()):
                    count = len(splits_of(mask))
                    assert row[:count] == row[:count][::-1]
                expected = _scalar_rect(n, constraints, PlanSpace.BUSHY, masks.tolist(), half=True)
                halves = ([], [])
                with pytest.MonkeyPatch.context() as patch:
                    _patch_budgets(patch, cells)
                    half = _source(query, constraints, PlanSpace.BUSHY, "half")
                    for __, block_left, block_right in half.blocks(size):
                        halves[0].extend(block_left.tolist())
                        halves[1].extend(block_right.tolist())
                width = len(expected[0][0])  # the blocks pad no row: pad them here
                padded = (
                    [row + [0] * (width - len(row)) for row in halves[0]],
                    [row + [mask] * (width - len(row)) for row, mask in zip(halves[1], masks.tolist())],
                )
                assert padded == expected


def _patch_budgets(patch, cells: int, rows: int | None = None) -> None:
    """Block budgets ``cells`` (linear and bushy); linear tiles of ``rows``
    masks (default: as many).  A skeleton's spans are cut at its build, so
    the cache starts empty under each budget."""
    patch.setattr(vecdp, "_skeletons", {})
    patch.setattr(vecdp, "_BLOCK_CELLS", cells)
    patch.setattr(vecdp, "_BUSHY_BLOCK_CELLS", cells)
    patch.setattr(vecdp, "_LINEAR_TILE_ROWS", cells if rows is None else rows)


def _assert_partitions_equal(reference: Backend, query, settings, n_partitions, budgets):
    """Counters, costs and plan trees of every vecdp partition, at each
    block budget, against ``reference``'s.  Bushy runs with all join
    algorithms on and off: the time and io sweeps cost one split of each
    mirrored pair and double its split and plan counts, the buffer sweep
    costs every split (the grid's bushy cases run all three metrics)."""
    variants = [settings]
    if settings.plan_space is PlanSpace.BUSHY:
        variants = [settings.replace(use_all_join_algorithms=algos) for algos in (True, False)]
    with pytest.MonkeyPatch.context() as patch:
        for variant, partition_id in itertools.product(variants, range(n_partitions)):
            expected = optimize_partition(
                query, partition_id, n_partitions, variant.replace(backend=reference)
            )
            for cells in budgets:
                _patch_budgets(patch, cells)
                vec = optimize_partition(
                    query, partition_id, n_partitions, variant.replace(backend=Backend.VECDP)
                )
                assert vec.stats.backend_used == "vecdp"
                parity._assert_results_equal(
                    expected, vec,
                    f"vecdp partition {partition_id}/{n_partitions}, {cells}-cell blocks, {variant}",
                )


class TestBlockedSweep:
    """At the shipped budgets no query the parity grids run (≤ 9 tables,
    ≤ 126 masks a level) ever splits a mask's row over two blocks, so the
    carried running minimum is driven here with budgets of 1, 3 and 17 cells
    — linear: row tiles of 1, 3 or 17 masks, a ragged last tile, and a
    small level's tile cut into runs of two or more columns; bushy: one row
    per block."""

    TINY = (1, 3, 17)

    @pytest.mark.parametrize(
        "objectives,space,n_partitions,n_tables,kind",
        [case for case in parity._vecdp_partition_grid() if len(case.values[0]) == 1],
    )
    def test_partition_parity_grid_at_tiny_blocks(
        self, objectives, space, n_partitions, n_tables, kind
    ):
        query = SteinbrunnGenerator(seed=41, clustered_tables=True).query(n_tables, kind)
        settings = OptimizerSettings(plan_space=space, objectives=objectives)
        _assert_partitions_equal(Backend.LEGACY, query, settings, n_partitions, self.TINY)

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_bnl_only_on_constrained_partitions_at_tiny_blocks(self, space):
        query = SteinbrunnGenerator(seed=42).query(7, JoinGraphKind.CYCLE)
        settings = OptimizerSettings(plan_space=space, use_all_join_algorithms=False)
        _assert_partitions_equal(Backend.LEGACY, query, settings, 4, self.TINY)

    @pytest.mark.parametrize("cardinality", [10**100, 10**155])
    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_overflowed_levels_leave_the_all_stored_shortcut(self, space, cardinality):
        """Cardinalities whose products overflow to ``+inf`` store only some
        of a level's masks (serial left-deep: 97 and 13 of 127), so later
        levels must scan for stored operands again — in constrained
        partitions too."""
        query = SteinbrunnGenerator(5).query(7, JoinGraphKind.CHAIN)
        tables = tuple(
            dataclasses.replace(table, cardinality=cardinality) for table in query.tables
        )
        query = dataclasses.replace(query, tables=tables)
        budgets = (*self.TINY, vecdp._BLOCK_CELLS)
        for objective in (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE, Objective.OUTPUT_ROWS):
            settings = OptimizerSettings(plan_space=space, objectives=(objective,))
            for n_partitions in (1, 2, 4):
                _assert_partitions_equal(Backend.FASTDP, query, settings, n_partitions, budgets)
        serial = optimize_partition(
            query, 0, 1, OptimizerSettings(plan_space=space, backend=Backend.VECDP)
        )
        assert 7 < serial.stats.table_entries < 7 + serial.stats.admissible_results

    def test_buffer_hash_cost_depends_on_the_build_side(self):
        """The buffer metric's hash candidate costs its right (build) side's
        rows, so a bushy split and its mirror cost differently once a table
        has fewer rows than a nested-loop block: that sweep costs them both."""
        query = SteinbrunnGenerator(5).query(7, JoinGraphKind.CHAIN)
        tables = tuple(
            dataclasses.replace(table, cardinality=10 if number % 2 else 10**4)
            for number, table in enumerate(query.tables)
        )
        query = dataclasses.replace(query, tables=tables)
        settings = OptimizerSettings(plan_space=PlanSpace.BUSHY, objectives=(Objective.BUFFER_SPACE,))
        for n_partitions in (1, 2, 4):
            _assert_partitions_equal(Backend.FASTDP, query, settings, n_partitions, self.TINY)


def _outcome(result) -> tuple:
    """A partition run's plans and every ``WorkerStats`` counter."""
    stats = dataclasses.asdict(result.stats)
    del stats["wall_time_s"]
    return pickle.dumps(result.plans), stats


def _skeleton_arrays(skeleton) -> list:
    arrays = list(skeleton.levels.values())
    if skeleton.linear:
        return arrays + [skeleton.after]
    for _, table, lengths in skeleton.halves:
        arrays += [table, lengths]
    return arrays + [left for lefts in (skeleton.blocks or {}).values() for left in lefts]


class TestSkeletonCache:
    """A partition's skeleton is built once per process and shape: a warm run
    of any query of that shape only gathers and costs, and gives what a cold
    run gives."""

    OBJECTIVES = (
        (Objective.EXECUTION_TIME,),
        (Objective.BUFFER_SPACE,),
        (Objective.OUTPUT_ROWS,),
        (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE),
    )

    def test_warm_runs_match_cold_runs_across_queries(self, monkeypatch):
        """Cold (cache cleared before each run), then every shape warm from
        the same query and from another query of that size — kinds and
        catalogue seeds differ — with nothing cleared between partitions,
        metrics and spaces, so a key that dropped the constraints or the
        cut hands a run another shape's skeleton."""
        queries = (
            SteinbrunnGenerator(11).query(7, JoinGraphKind.STAR),
            SteinbrunnGenerator(12, clustered_tables=True).query(7, JoinGraphKind.CYCLE),
        )
        runs = [
            (space, OptimizerSettings(plan_space=space, objectives=objectives, backend=Backend.VECDP), p, i)
            for space in PlanSpace
            for objectives in self.OBJECTIVES
            for p in (1, 2, 4)
            for i in range(p)
        ]
        cache = _cold(monkeypatch)
        cold = {}
        for index, query in enumerate(queries):
            for space, settings, p, partition in runs:
                cache.clear()
                cold[index, settings, p, partition] = _outcome(
                    optimize_partition(query, partition, p, settings)
                )
        cache.clear()
        for order in ((0, 0, 1), (1, 0, 1)):  # same query warm; the other query warm
            for index in order:
                for space, settings, p, partition in runs:
                    result = optimize_partition(queries[index], partition, p, settings)
                    assert _outcome(result) == cold[index, settings, p, partition], (
                        f"query {index}, {settings}, partition {partition}/{p}"
                    )
        # Seven partitions; linear ones share a skeleton across metrics, bushy
        # ones keep one per cut: half rows, whole rows (buffer and frontier).
        assert len(cache) == 7 + 2 * 7

    def test_cached_arrays_refuse_writes(self, monkeypatch):
        cache = _cold(monkeypatch)
        query = SteinbrunnGenerator(5).query(8, JoinGraphKind.CHAIN)
        for space in PlanSpace:
            for objectives in self.OBJECTIVES:
                settings = OptimizerSettings(plan_space=space, objectives=objectives)
                optimize_partition(query, 1, 2, settings.replace(backend=Backend.VECDP))
        assert len(cache) == 3  # linear; bushy half and whole rows
        for skeleton in cache.values():
            arrays = _skeleton_arrays(skeleton)
            assert arrays and all(not array.flags.writeable for array in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[-1][...] = 0

    def test_the_cache_keeps_to_its_byte_budget(self, monkeypatch):
        """More shapes than fit: the least recently used leave, the kept
        bytes never exceed the budget, and a shape over the budget is built
        per run, not kept — its run still matches a kept one's."""
        cache = _cold(monkeypatch)
        query = SteinbrunnGenerator(8).query(9, JoinGraphKind.CYCLE)
        settings = BUSHY.replace(backend=Backend.VECDP)
        expected = _outcome(optimize_partition(query, 0, 1, settings))
        budget = next(iter(cache.values())).nbytes  # bushy 9, half rows, p = 1
        cache.clear()
        monkeypatch.setattr(vecdp, "_SKELETON_BYTES", budget + 1)
        for n_tables in (6, 7, 8):
            for space in PlanSpace:
                shape = SteinbrunnGenerator(n_tables).query(n_tables, JoinGraphKind.CHAIN)
                for p in (1, 2):
                    optimize_partition(shape, 0, p, OptimizerSettings(plan_space=space, backend=Backend.VECDP))
                    assert sum(kept.nbytes for kept in cache.values()) <= budget + 1
        assert len(cache) >= 2
        assert _outcome(optimize_partition(query, 0, 1, settings)) == expected
        assert list(cache)[-1][0] == 9  # kept, most recently used
        assert sum(kept.nbytes for kept in cache.values()) <= budget + 1
        monkeypatch.setattr(vecdp, "_SKELETON_BYTES", budget - 1)
        cache.clear()
        assert _outcome(optimize_partition(query, 0, 1, settings)) == expected
        assert not cache

    def test_threads_building_one_shape_match_serial_runs(self, monkeypatch):
        queries = [
            SteinbrunnGenerator(20 + index).query(9, list(JoinGraphKind)[index % 3])
            for index in range(8)
        ]
        settings = BUSHY.replace(backend=Backend.VECDP)
        cache = _cold(monkeypatch)
        serial = []
        for query in queries:
            cache.clear()
            serial.append(_outcome(optimize_partition(query, 1, 2, settings)))
        cache.clear()
        barrier = threading.Barrier(len(queries))
        outcomes = [None] * len(queries)

        def run(index):
            barrier.wait()
            outcomes[index] = _outcome(optimize_partition(queries[index], 1, 2, settings))

        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == serial
        assert len(cache) == 1

    def test_a_pool_forked_from_a_warm_master_matches_serial(self):
        """Pool workers forked from the master inherit its skeletons."""
        query = SteinbrunnGenerator(9).query(9, JoinGraphKind.STAR)
        settings = BUSHY.replace(backend=Backend.VECDP)
        serial = optimize_partition(query, 0, 1, settings)
        for partition in range(2):  # warm the partitions' skeletons here
            optimize_partition(query, partition, 2, settings)
        with PersistentProcessPoolExecutor(max_workers=2) as pool:
            report = optimize_mpq(query, 2, settings, executor=pool)
        assert [plan.cost for plan in report.plans] == [plan.cost for plan in serial.plans]


class TestWorkingSet:
    """vecdp's peak memory is its dense per-mask state plus one block, not a
    multiple of a level's width: at 18 tables the widest linear level has
    48,620 masks, and level-wide block temporaries (389 KB each) once put
    the traced peak at 18.2 MiB (p = 1) and 16.1 MiB (p = 2)."""

    #: Dense bytes per mask of the plain linear state, all ``2**n`` masks:
    #: ``cost`` and ``rows`` (float64), the packed ``bp`` (int8),
    #: ``neighbours`` and ``after`` (int64, zero-filled: traced at full size,
    #: though written only at the singletons), the int32 level masks.
    STATE = 8 + 8 + 1 + 8 + 8 + 4
    #: Per mask of the widest level: ``best``, ``win_right``, ``win_algo``,
    #: and the intp copy of the level's masks a scatter into the state makes.
    LEVEL = 8 + 4 + 1 + 8
    #: float64-sized arrays a block holds at once, and the plans, query and
    #: cost model around the arrays.
    TEMPORARIES = 16
    SLACK = 1 << 18

    @pytest.mark.parametrize("n_partitions", [1, 2])
    def test_linear_18_tables_peak_is_state_plus_one_block(self, n_partitions):
        n = 18
        query = SteinbrunnGenerator(7).query(n, JoinGraphKind.CHAIN)
        settings = OptimizerSettings(backend=Backend.VECDP)
        optimize_partition(SteinbrunnGenerator(7).query(6, JoinGraphKind.CHAIN), 0, 1, settings)
        tracemalloc.start()
        try:
            result = optimize_partition(query, 0, n_partitions, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.backend_used == "vecdp" and result.plans
        bound = (
            self.STATE * 2**n
            + self.LEVEL * comb(n, n // 2)
            + max(vecdp._LINEAR_TILE_ROWS, vecdp._BLOCK_CELLS) * 8 * self.TEMPORARIES
            + self.SLACK
        )
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"
