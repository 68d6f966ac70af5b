"""Admissible join-result generation (paper Algorithm 4) and coverage.

The key structural invariants behind MPQ's correctness:

* per partition, the generated sets are exactly the constraint-respecting
  subsets (product construction == brute-force filter);
* partitions are equally sized (skew-free parallelization);
* every table set of cardinality >= 2 is admissible in at least one
  partition (the ensemble covers the whole plan space);
* the full query set is admissible in every partition.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlanSpace
from repro.core.constraints import (
    BushyConstraint,
    LinearConstraint,
    max_constraints,
    partition_constraints,
)
from repro.core.partitioning import (
    _constraints_by_group,
    admissible_join_results,
    admissible_results_by_size,
    group_admissible_subsets,
    is_admissible,
)
from repro.core.worker import optimize_partition
from repro.query.generator import SteinbrunnGenerator
from repro.util.bitset import popcount


def brute_force_admissible(n_tables, constraints):
    """All sets (any size) surviving the constraint filter, singletons ``{y}``
    of a linear constraint excluded as in ConstrainedPowerSet."""
    admissible = []
    for mask in range(1 << n_tables):
        excluded = False
        for constraint in constraints:
            if isinstance(constraint, LinearConstraint):
                after_bit = 1 << constraint.after
                before_bit = 1 << constraint.before
                if mask & after_bit and not mask & before_bit:
                    excluded = True
            else:
                yz = (1 << constraint.y) | (1 << constraint.z)
                if mask & yz == yz and not mask & (1 << constraint.x):
                    excluded = True
        if not excluded:
            admissible.append(mask)
    return sorted(admissible)


class TestGroupSubsets:
    def test_unconstrained_pair(self):
        subsets = group_admissible_subsets((0, 1), None)
        assert sorted(subsets) == [0b00, 0b01, 0b10, 0b11]

    def test_constrained_pair_drops_after_singleton(self):
        subsets = group_admissible_subsets((0, 1), LinearConstraint(0, 1))
        assert sorted(subsets) == [0b00, 0b01, 0b11]

    def test_constrained_pair_flipped(self):
        subsets = group_admissible_subsets((0, 1), LinearConstraint(1, 0))
        assert sorted(subsets) == [0b00, 0b10, 0b11]


class TestAdmissibleResults:
    @pytest.mark.parametrize("n,space", [(4, PlanSpace.LINEAR), (6, PlanSpace.LINEAR),
                                         (6, PlanSpace.BUSHY), (7, PlanSpace.BUSHY)])
    def test_no_constraints_full_power_set(self, n, space):
        results = admissible_join_results(n, (), space)
        assert sorted(results) == list(range(1 << n))

    @pytest.mark.parametrize("space", [PlanSpace.LINEAR, PlanSpace.BUSHY])
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_brute_force(self, n, space):
        limit = max_constraints(n, space)
        for n_partitions in (2, 4, 1 << limit):
            for partition_id in range(min(n_partitions, 8)):
                constraints = partition_constraints(n, partition_id, n_partitions, space)
                generated = sorted(admissible_join_results(n, constraints, space))
                assert generated == brute_force_admissible(n, constraints)

    def test_full_query_always_admissible(self):
        n = 8
        for partition_id in range(16):
            constraints = partition_constraints(n, partition_id, 16, PlanSpace.LINEAR)
            results = admissible_join_results(n, constraints, PlanSpace.LINEAR)
            assert (1 << n) - 1 in results

    @pytest.mark.parametrize(
        "n,space,m",
        [
            (6, PlanSpace.LINEAR, 8),
            (8, PlanSpace.LINEAR, 16),
            (6, PlanSpace.BUSHY, 4),
            (9, PlanSpace.BUSHY, 8),
        ],
    )
    def test_partitions_equal_size(self, n, space, m):
        sizes = set()
        for partition_id in range(m):
            constraints = partition_constraints(n, partition_id, m, space)
            sizes.add(len(admissible_join_results(n, constraints, space)))
        assert len(sizes) == 1

    @pytest.mark.parametrize(
        "n,space,m",
        [
            (6, PlanSpace.LINEAR, 8),
            (7, PlanSpace.LINEAR, 8),
            (6, PlanSpace.BUSHY, 4),
            (9, PlanSpace.BUSHY, 8),
        ],
    )
    def test_every_set_covered_by_some_partition(self, n, space, m):
        covered = set()
        for partition_id in range(m):
            constraints = partition_constraints(n, partition_id, m, space)
            covered.update(admissible_join_results(n, constraints, space))
        expected = {mask for mask in range(1 << n) if popcount(mask) != 1}
        assert expected <= covered

    def test_each_linear_partition_smaller(self):
        n = 8
        full = len(admissible_join_results(n, (), PlanSpace.LINEAR))
        constraints = partition_constraints(n, 0, 16, PlanSpace.LINEAR)
        part = len(admissible_join_results(n, constraints, PlanSpace.LINEAR))
        assert part == full * (3, 4)[0] ** 4 // 4**4


class TestBySize:
    def test_sizes_partition_results(self):
        constraints = partition_constraints(6, 1, 4, PlanSpace.LINEAR)
        by_size = admissible_results_by_size(6, constraints, PlanSpace.LINEAR)
        flat = [mask for masks in by_size.values() for mask in masks]
        assert all(popcount(mask) >= 2 for mask in flat)
        for size, masks in by_size.items():
            assert all(popcount(mask) == size for mask in masks)

    def test_no_small_sets(self):
        by_size = admissible_results_by_size(5, (), PlanSpace.LINEAR)
        assert 0 not in by_size
        assert 1 not in by_size


class TestIsAdmissible:
    def test_agrees_with_generator_for_size_2_plus(self):
        n = 7
        constraints = partition_constraints(n, 2, 4, PlanSpace.LINEAR)
        generated = set(admissible_join_results(n, constraints, PlanSpace.LINEAR))
        for mask in range(1 << n):
            if popcount(mask) >= 2:
                assert is_admissible(mask, constraints) == (mask in generated)

    def test_singletons_always_admissible(self):
        constraints = partition_constraints(6, 0, 4, PlanSpace.LINEAR)
        for i in range(6):
            assert is_admissible(1 << i, constraints)


class TestConstraintGroupingErrors:
    def test_two_constraints_same_group(self):
        with pytest.raises(ValueError, match="multiple constraints"):
            _constraints_by_group(
                [(0, 1), (2, 3)],
                [LinearConstraint(0, 1), LinearConstraint(1, 0)],
            )

    def test_constraint_across_groups(self):
        with pytest.raises(ValueError, match="not aligned|does not fit"):
            _constraints_by_group([(0, 1), (2, 3)], [LinearConstraint(1, 2)])

    def test_bushy_constraint_outside_groups(self):
        with pytest.raises(ValueError):
            admissible_join_results(
                6, (BushyConstraint(x=1, y=2, z=3),), PlanSpace.BUSHY
            )


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=9),
    space=st.sampled_from([PlanSpace.LINEAR, PlanSpace.BUSHY]),
    data=st.data(),
)
def test_partition_pair_complementary_coverage(n, space, data):
    """Any two complementary partition IDs cover all sets their constraint
    distinguishes: flipping one bit re-admits what the other excluded."""
    limit = max_constraints(n, space)
    n_partitions = 1 << limit
    partition_id = data.draw(st.integers(min_value=0, max_value=n_partitions - 1))
    bit_index = data.draw(st.integers(min_value=0, max_value=limit - 1))
    sibling = partition_id ^ (1 << bit_index)
    constraints_a = partition_constraints(n, partition_id, n_partitions, space)
    constraints_b = partition_constraints(n, sibling, n_partitions, space)
    admissible_a = set(admissible_join_results(n, constraints_a, space))
    admissible_b = set(admissible_join_results(n, constraints_b, space))
    # The union equals the admissible sets of the shared constraints only
    # (i.e. with the flipped bit's constraint removed entirely).
    shared = tuple(
        c for i, c in enumerate(constraints_a) if i != bit_index
    )
    admissible_shared = set(admissible_join_results(n, shared, space))
    assert admissible_a | admissible_b == admissible_shared


@pytest.fixture
def query():
    return SteinbrunnGenerator(91).query(6)


class TestSkewFreeness:
    """The paper: "All plan space partitions have the same size which
    guarantees skew-free parallelization." — verify at the worker level."""

    def test_linear_partitions_identical_work(self, query, linear_settings):
        stats = [
            optimize_partition(query, pid, 8, linear_settings).stats
            for pid in range(8)
        ]
        assert len({s.admissible_results for s in stats}) == 1
        assert len({s.splits_considered for s in stats}) == 1
        assert len({s.table_entries for s in stats}) == 1

    def test_bushy_partitions_identical_work(self, bushy_settings):
        query = SteinbrunnGenerator(92).query(6)
        stats = [
            optimize_partition(query, pid, 4, bushy_settings).stats
            for pid in range(4)
        ]
        assert len({s.admissible_results for s in stats}) == 1
        assert len({s.splits_considered for s in stats}) == 1

    def test_candidate_counts_near_uniform(self, query, linear_settings):
        """Costed candidates may differ slightly (operator applicability),
        but never by more than a small factor — no real skew."""
        considered = [
            optimize_partition(query, pid, 8, linear_settings).stats.plans_considered
            for pid in range(8)
        ]
        assert max(considered) <= 2 * min(considered)
