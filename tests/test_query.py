"""The query object: numbering, predicate indexing, join graph."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.query.query import Query
from repro.query.schema import Table
from tests.conftest import make_manual_query


class TestValidation:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            Query(tables=())

    def test_predicate_endpoint_bounds(self):
        with pytest.raises(ValueError):
            make_manual_query([10, 20], [(0, 5, 0.1)])

    def test_single_table_ok(self):
        query = Query(tables=(Table("R", 5),))
        assert query.n_tables == 1


class TestBasics:
    def test_n_tables(self):
        assert make_manual_query([1, 2, 3]).n_tables == 3

    def test_all_tables_mask(self):
        assert make_manual_query([1, 2, 3]).all_tables_mask == 0b111

    def test_table_by_number(self):
        query = make_manual_query([10, 20])
        assert query.tables[1].cardinality == 20

    def test_describe_mentions_tables(self):
        text = make_manual_query([10, 20], [(0, 1, 0.5)]).describe()
        assert "T0" in text and "T1" in text


class TestPredicateIndex:
    def test_predicates_of(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1), (1, 2, 0.2)])
        assert len(query.predicates_of(1)) == 2
        assert len(query.predicates_of(0)) == 1
        assert query.predicates_of(5) == ()

    def test_predicates_between(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1), (1, 2, 0.2)])
        found = query.predicates_between(0b001, 0b010)
        assert [p.selectivity for p in found] == [0.1]

    def test_predicates_between_cross_product(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1)])
        assert query.predicates_between(0b001, 0b100) == []

    def test_predicates_between_no_duplicates(self):
        query = make_manual_query([1, 2, 3, 4], [(0, 2, 0.1), (1, 3, 0.2)])
        found = query.predicates_between(0b0011, 0b1100)
        assert len(found) == 2


class TestJoinGraph:
    def test_edges(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1), (1, 2, 0.2)])
        assert query.join_graph_edges() == {frozenset({0, 1}), frozenset({1, 2})}

    def test_connected_chain(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1), (1, 2, 0.2)])
        assert query.is_connected()

    def test_disconnected(self):
        query = make_manual_query([1, 2, 3], [(0, 1, 0.1)])
        assert not query.is_connected()

    def test_single_table_connected(self):
        assert make_manual_query([7]).is_connected()


class TestPickling:
    def test_roundtrip(self):
        query = make_manual_query([10, 20, 30], [(0, 1, 0.1), (1, 2, 0.2)])
        clone = pickle.loads(pickle.dumps(query))
        assert clone.n_tables == 3
        assert clone.predicates_of(1) == query.predicates_of(1)
        assert clone.tables[2].cardinality == 30

    def test_roundtrip_of_a_hashed_query_leaves_the_cached_hash_behind(self):
        query = make_manual_query([10, 20, 30], [(0, 1, 0.1), (1, 2, 0.2)])
        hash(query)
        clone = pickle.loads(pickle.dumps(query))
        assert "_hash" not in vars(clone)
        assert clone == query and hash(clone) == hash(query)
        assert clone.predicates_of(1) == query.predicates_of(1)


class TestCachedHash:
    def test_hash_is_the_field_tuple_hash_computed_once(self):
        query = make_manual_query([10, 20, 30], [(0, 1, 0.1), (1, 2, 0.2)])
        assert "_hash" not in vars(query)
        expected = hash((query.tables, query.predicates, query.name))
        assert hash(query) == expected
        assert vars(query)["_hash"] == expected
        assert hash(query) == expected

    def test_cache_is_not_a_field(self):
        hashed = make_manual_query([10, 20], [(0, 1, 0.5)])
        plain = make_manual_query([10, 20], [(0, 1, 0.5)])
        hash(hashed)
        assert [field.name for field in dataclasses.fields(Query)] == [
            "tables",
            "predicates",
            "name",
            "_predicate_index",
        ]
        assert hashed == plain and repr(hashed) == repr(plain)
        renamed = dataclasses.replace(hashed, name="other")
        assert "_hash" not in vars(renamed)
        assert hash(renamed) == hash((renamed.tables, renamed.predicates, "other"))
        assert renamed != hashed
