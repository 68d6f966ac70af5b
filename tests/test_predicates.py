"""Join predicates and selectivity estimation."""

from __future__ import annotations

import pytest

from repro.query.predicates import JoinPredicate, equi_join_selectivity
from repro.query.schema import Column


def make_predicate(left=0, right=1, selectivity=0.01):
    return JoinPredicate(
        left_table=left,
        left_column="a",
        right_table=right,
        right_column="b",
        selectivity=selectivity,
    )


class TestSelectivity:
    def test_uses_max_domain(self):
        assert equi_join_selectivity(Column("a", 10), Column("b", 1000)) == 1 / 1000

    def test_symmetric(self):
        a, b = Column("a", 50), Column("b", 20)
        assert equi_join_selectivity(a, b) == equi_join_selectivity(b, a)

    def test_unit_domains(self):
        assert equi_join_selectivity(Column("a", 1), Column("b", 1)) == 1.0


class TestJoinPredicateValidation:
    def test_rejects_self_join(self):
        with pytest.raises(ValueError):
            make_predicate(left=2, right=2)

    def test_rejects_zero_selectivity(self):
        with pytest.raises(ValueError):
            make_predicate(selectivity=0.0)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            make_predicate(selectivity=1.5)

    def test_selectivity_one_allowed(self):
        assert make_predicate(selectivity=1.0).selectivity == 1.0


class TestTablePair:
    def test_unordered(self):
        assert make_predicate(0, 3).table_pair == frozenset({0, 3})


class TestConnects:
    def test_straddling(self):
        predicate = make_predicate(0, 2)
        assert predicate.connects(0b001, 0b100)

    def test_straddling_flipped(self):
        predicate = make_predicate(0, 2)
        assert predicate.connects(0b100, 0b001)

    def test_same_side(self):
        predicate = make_predicate(0, 2)
        assert not predicate.connects(0b101, 0b010)

    def test_one_endpoint_absent(self):
        predicate = make_predicate(0, 2)
        assert not predicate.connects(0b001, 0b010)

    def test_with_extra_tables(self):
        predicate = make_predicate(0, 2)
        assert predicate.connects(0b1001, 0b0110)
