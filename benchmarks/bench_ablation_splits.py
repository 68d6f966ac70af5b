"""Ablations for the design choices DESIGN.md calls out.

1. Bushy split generation: the paper's constrained Cartesian-product
   generation (complexity linear in *admissible* splits) vs the naive
   enumerate-all-then-filter strategy (linear in *possible* splits).
2. Constraint count: per-worker DP work as l grows, validating the 3/4 and
   21/27 per-constraint factors end to end on real runs.
3. Speedup summary: the paper's Section 6.2 headline numbers at CI scale.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import star_query
from repro.bench.experiments import speedups
from repro.config import PlanSpace
from repro.core.constraints import partition_constraints
from repro.core.counting import linear_split_count
from repro.core.partitioning import admissible_join_results
from repro.core.worker import (
    _bushy_groups,
    bushy_operands,
    optimize_partition,
)
from repro.testing import naive_bushy_operands
from repro.util.bitset import popcount


def _bushy_partition(n_tables, n_constraints):
    constraints = partition_constraints(
        n_tables, 0, 1 << n_constraints, PlanSpace.BUSHY
    )
    masks = [
        mask
        for mask in admissible_join_results(n_tables, constraints, PlanSpace.BUSHY)
        if popcount(mask) >= 2
    ]
    return constraints, masks


class TestSplitGenerationAblation:
    def test_constrained_generation(self, benchmark):
        constraints, masks = _bushy_partition(12, 4)
        groups = _bushy_groups(12, constraints)

        def run():
            return sum(len(bushy_operands(mask, groups)) for mask in masks)

        total = benchmark.pedantic(run, rounds=3, iterations=1)
        assert total > 0

    def test_naive_generation(self, benchmark):
        constraints, masks = _bushy_partition(12, 4)

        def run():
            return sum(
                len(naive_bushy_operands(mask, constraints)) for mask in masks
            )

        total = benchmark.pedantic(run, rounds=3, iterations=1)
        assert total > 0

    def test_same_output(self):
        constraints, masks = _bushy_partition(9, 3)
        groups = _bushy_groups(9, constraints)
        for mask in masks[:200]:
            assert sorted(bushy_operands(mask, groups)) == sorted(
                naive_bushy_operands(mask, constraints)
            )


class TestConstraintCountAblation:
    @pytest.mark.parametrize("n_constraints", [0, 2, 4])
    def test_linear_work_by_constraints(self, benchmark, linear_settings, n_constraints):
        query = star_query(10)
        result = benchmark.pedantic(
            optimize_partition,
            args=(query, 0, 1 << n_constraints, linear_settings),
            rounds=3,
            iterations=1,
        )
        assert result.plans

    def test_linear_factor_end_to_end(self, linear_settings):
        # A count, not a clock: the exact closed form, not a band around 3/4
        # (the per-constraint ratio is 0.6996 … 0.6868 at 10 tables because
        # constraints also block inner-operand choices).
        query = star_query(10)
        for l in range(5):
            stats = optimize_partition(query, 0, 1 << l, linear_settings).stats
            assert stats.splits_considered == linear_split_count(10, l)

    def test_bushy_factor_end_to_end(self, bushy_settings):
        query = star_query(9)
        splits = [
            optimize_partition(query, 0, 1 << l, bushy_settings).stats.splits_considered
            for l in range(4)
        ]
        for previous, current in zip(splits, splits[1:]):
            # 21/27 with slack: removing the degenerate operands (0 and U)
            # shifts the ratio slightly on small queries.
            assert 0.72 < current / previous < 0.82


def test_speedups_report(benchmark):
    """Section 6.2 headline speedups at CI scale."""
    result = benchmark.pedantic(speedups, args=("ci",), rounds=1, iterations=1)
    print()
    print(result.format())
    # The paper notes parallelization does not pay off for sub-second
    # optimizations; at CI scale the smallest configs sit at the break-even
    # point, so require near-break-even everywhere and a clear win overall.
    for row in result.rows:
        assert row.speedup > 0.7, row
    assert max(row.speedup for row in result.rows) > 1.5
