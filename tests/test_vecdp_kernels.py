"""vecdp's bulk kernels against their scalar specifications.

``_pareto_filter`` must make the decisions of the sequential
:class:`~repro.cost.pruning.ParetoPruning` fed the same candidate streams,
``_levels`` must admit the masks
:func:`~repro.core.partitioning.admissible_results_by_size` enumerates, and
``_Splits`` must list each level's operands exactly as
:func:`~repro.core.worker.bushy_operands` does — order, width and padding —
with ``equi`` the per-predicate straddle test.
"""

from __future__ import annotations

import dataclasses
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.core.constraints import max_constraints, partition_constraints
from repro.core.fastdp import _adjacency_masks, _connected
from repro.core.partitioning import admissible_results_by_size
from repro.core.worker import WorkerStats, _bushy_groups, bushy_operands, optimize_partition
from repro.cost.pruning import ParetoPruning
from repro.query.generator import SteinbrunnGenerator
from repro.query.predicates import JoinPredicate
from repro.query.query import JoinGraphKind

np = pytest.importorskip("numpy")

from repro.core import vecdp  # noqa: E402  (needs numpy)
from tests import test_fastdp as parity  # noqa: E402  (its grid and stats comparison)


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
            np, candidates, np.asarray(widths, dtype=np.int64)
        )
        expected_accepted, expected_survivors = _sequential(candidates.tolist(), widths)
        assert accepted == expected_accepted
        assert survivors.tolist() == expected_survivors

    def test_all_overflowed_stream_keeps_its_first_row(self):
        """Real ``+inf`` rows count like any other; only padding is inert."""
        candidates = np.full((5, 2), inf)
        accepted, survivors = vecdp._pareto_filter(np, candidates, np.asarray([2, 3]))
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
            stats = WorkerStats(partition_id, n_partitions, len(constraints))
            levels = vecdp._levels(np, n_tables, constraints, stats)
            expected = admissible_results_by_size(n_tables, constraints, space)
            assert {
                size: set(masks.tolist()) for size, masks in levels.items()
            } == {size: set(masks) for size, masks in expected.items()}
            assert stats.admissible_results == sum(map(len, expected.values()))

    def test_popcount_fallback_without_the_ufunc(self, monkeypatch):
        """numpy < 2 has no ``bitwise_count``; the shift-and-sum agrees."""
        masks = np.arange(1 << 11, dtype=np.int64)
        expected = [bin(mask).count("1") for mask in masks.tolist()]
        assert vecdp._popcount(np, masks).tolist() == expected
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert vecdp._popcount(np, masks).tolist() == expected


BUSHY = OptimizerSettings(plan_space=PlanSpace.BUSHY)


def _scalar_rect(query, constraints, space, masks):
    """``(left, right)`` rows per mask from the scalar split sources: the
    bit-peel, or ``bushy_operands`` minus 0 / mask, zero-padded."""
    if space is PlanSpace.LINEAR:
        rights = [[1 << bit for bit in range(query.n_tables) if mask >> bit & 1] for mask in masks]
        return [[mask ^ right for right in row] for mask, row in zip(masks, rights)], rights
    groups = _bushy_groups(query.n_tables, constraints)
    lefts = [
        [operand for operand in bushy_operands(mask, groups) if operand not in (0, mask)]
        for mask in masks
    ]
    width = max(1, *map(len, lefts))
    lefts = [row + [0] * (width - len(row)) for row in lefts]
    return lefts, [[mask ^ left for left in row] for mask, row in zip(masks, lefts)]


def _assert_rectangles_match_spec(n_tables: int, constraints: tuple):
    """Every level's rectangle is ``bushy_operands`` minus 0 / mask, padded."""
    query = SteinbrunnGenerator(5).query(n_tables, JoinGraphKind.CHAIN)
    source = vecdp._Splits(np, query, constraints, BUSHY)
    levels = vecdp._levels(np, n_tables, constraints, WorkerStats(0, 1, 0))
    for size, masks in levels.items():
        if masks.shape[0] == 0:
            continue
        left, right = source.rect(masks, size)
        assert left.dtype == right.dtype == np.int64
        assert (left.tolist(), right.tolist()) == _scalar_rect(
            query, constraints, PlanSpace.BUSHY, masks.tolist()
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
        mask (502 serially)."""
        calls = []

        def counting(mask, groups):
            calls.append(mask)
            return bushy_operands(mask, groups)

        monkeypatch.setattr(vecdp, "bushy_operands", counting)
        query = SteinbrunnGenerator(5).query(9, JoinGraphKind.STAR)
        result = vecdp.optimize_partition_vecdp(query, 0, n_partitions, BUSHY)
        assert 0 < len(calls) <= 8 + 64 < result.stats.admissible_results


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
        source = vecdp._Splits(np, query, constraints, BUSHY)
        adjacency = _adjacency_masks(query)
        levels = vecdp._levels(np, n, constraints, WorkerStats(0, 1, 0))
        for size, masks in levels.items():
            if masks.shape[0] == 0:
                continue
            left, right = source.rect(masks, size)
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
    """``_Splits.blocks`` cuts the rectangle, it never reorders it."""

    @settings(max_examples=60, deadline=None)
    @given(
        _queries_with_extra_predicates(),
        st.sampled_from(list(PlanSpace)),
        st.sampled_from([1, 2, 3, 5, 17, 64, 1 << 12]),
    )
    def test_blocks_tile_the_rectangle_in_split_order(self, drawn, space, cells):
        query, partition_id, n_partitions = drawn
        n = query.n_tables
        constraints = partition_constraints(n, partition_id, n_partitions, space)
        source = vecdp._Splits(np, query, constraints, OptimizerSettings(plan_space=space))
        levels = vecdp._levels(np, n, constraints, WorkerStats(0, 1, 0))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vecdp, "_BLOCK_CELLS", cells)
            for size, masks in levels.items():
                if masks.shape[0] == 0:
                    continue
                left, right = (side.tolist() for side in source.rect(masks, size))
                assert (left, right) == _scalar_rect(query, constraints, space, masks.tolist())
                row = column = 0  # where the next block must start
                for span, block_left, block_right in source.blocks(masks, size):
                    height, width = block_left.shape
                    assert block_left.dtype == block_right.dtype == np.int64
                    assert block_right.shape == (height, width)
                    if space is PlanSpace.LINEAR:  # runs of columns, whole level
                        assert (span.start, span.stop) == (0, len(left))
                        assert block_left.size <= max(cells, height)
                        columns = slice(column, column + width)
                        column += width
                    else:  # runs of rows, whole width
                        assert (span.start, span.stop) == (row, row + height)
                        assert block_left.size <= max(cells, width)
                        columns = slice(0, len(left[0]))
                        row += height
                    assert block_left.tolist() == [splits[columns] for splits in left[span]]
                    assert block_right.tolist() == [splits[columns] for splits in right[span]]
                if space is PlanSpace.LINEAR:
                    assert column == size
                else:
                    assert row == len(left)


def _assert_partitions_equal(reference: Backend, query, settings, n_partitions, budgets):
    """Counters, costs and plan trees of every vecdp partition, at each
    block budget, against ``reference``'s."""
    with pytest.MonkeyPatch.context() as patch:
        for partition_id in range(n_partitions):
            expected = optimize_partition(
                query, partition_id, n_partitions, settings.replace(backend=reference)
            )
            for cells in budgets:
                patch.setattr(vecdp, "_BLOCK_CELLS", cells)
                vec = optimize_partition(
                    query, partition_id, n_partitions, settings.replace(backend=Backend.VECDP)
                )
                assert vec.stats.backend_used == "vecdp"
                parity._assert_results_equal(
                    expected, vec, f"vecdp partition {partition_id}/{n_partitions}, {cells}-cell blocks"
                )


class TestBlockedSweep:
    """At the shipped ``_BLOCK_CELLS`` no query the parity grids run (≤ 9
    tables, ≤ 126 masks a level) ever splits a mask's row over two blocks, so
    the carried running minimum is driven here with budgets of 1, 3 and 17
    cells — linear: one and two-to-three columns per block and a ragged last
    block; bushy: one row per block."""

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
