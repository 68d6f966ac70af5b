"""vecdp's two bulk kernels against their scalar specifications.

``_pareto_filter`` must make the decisions of the sequential
:class:`~repro.cost.pruning.ParetoPruning` fed the same candidate streams,
and ``_levels`` must admit the masks
:func:`~repro.core.partitioning.admissible_results_by_size` enumerates.
"""

from __future__ import annotations

from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlanSpace
from repro.core.constraints import max_constraints, partition_constraints
from repro.core.partitioning import admissible_results_by_size
from repro.core.worker import WorkerStats
from repro.cost.pruning import ParetoPruning

np = pytest.importorskip("numpy")

from repro.core import vecdp  # noqa: E402  (needs numpy)


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


class TestLevels:
    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("n_tables", range(2, 11))
    def test_equals_scalar_enumeration_for_every_partition(self, space, n_tables):
        for n_constraints in range(max_constraints(n_tables, space) + 1):
            n_partitions = 1 << n_constraints
            for partition_id in range(n_partitions):
                constraints = partition_constraints(
                    n_tables, partition_id, n_partitions, space
                )
                stats = WorkerStats(partition_id, n_partitions, n_constraints)
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
