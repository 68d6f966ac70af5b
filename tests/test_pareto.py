"""Pareto dominance, approximate dominance, frontier filtering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cost.pareto import (
    alpha_dominates,
    dominates,
    pareto_filter,
)

vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=2
).map(tuple)


class TestDominates:
    def test_better_everywhere(self):
        assert dominates((1.0, 2.0), (3.0, 4.0))

    def test_equal_dominates(self):
        assert dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable(self):
        assert not dominates((1.0, 5.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 5.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    @given(vectors, vectors)
    def test_antisymmetry_unless_equal(self, a, b):
        if dominates(a, b) and dominates(b, a):
            assert a == b


class TestAlphaDominates:
    def test_alpha_one_is_exact(self):
        assert alpha_dominates((1.0, 2.0), (1.0, 2.0), 1.0)
        assert not alpha_dominates((1.1, 2.0), (1.0, 2.0), 1.0)

    def test_alpha_relaxes(self):
        assert alpha_dominates((1.1, 2.0), (1.0, 2.0), 1.2)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            alpha_dominates((1.0,), (1.0,), 0.5)

    @given(vectors, vectors, st.floats(min_value=1.0, max_value=10.0))
    def test_exact_implies_alpha(self, a, b, alpha):
        if dominates(a, b):
            assert alpha_dominates(a, b, alpha)


class TestParetoFilter:
    def test_single(self):
        assert pareto_filter([(1.0, 2.0)]) == [(1.0, 2.0)]

    def test_dominated_removed(self):
        frontier = pareto_filter([(1.0, 2.0), (2.0, 3.0)])
        assert frontier == [(1.0, 2.0)]

    def test_incomparable_kept(self):
        frontier = pareto_filter([(1.0, 5.0), (5.0, 1.0)])
        assert len(frontier) == 2

    def test_duplicates_collapse(self):
        frontier = pareto_filter([(1.0, 2.0), (1.0, 2.0)])
        assert frontier == [(1.0, 2.0)]

    def test_order_independent_content(self):
        points = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0)]
        forward = set(pareto_filter(points))
        backward = set(pareto_filter(list(reversed(points))))
        assert forward == backward == {(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)}

    @given(st.lists(vectors, min_size=1, max_size=30))
    def test_frontier_is_antichain(self, points):
        frontier = pareto_filter(points)
        for a in frontier:
            for b in frontier:
                if a != b:
                    assert not dominates(a, b)

    @given(st.lists(vectors, min_size=1, max_size=30))
    def test_every_point_dominated_by_frontier(self, points):
        frontier = pareto_filter(points)
        for point in points:
            assert any(dominates(kept, point) for kept in frontier)
