"""Bitmask table-set helpers."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitset import (
    bit,
    bits,
    iter_proper_nonempty_subsets,
    iter_subsets,
    mask_of,
    popcount,
)


class TestBit:
    def test_bit_zero(self):
        assert bit(0) == 1

    def test_bit_five(self):
        assert bit(5) == 32

    def test_bits_disjoint(self):
        assert bit(3) & bit(4) == 0


class TestMaskOf:
    def test_empty(self):
        assert mask_of([]) == 0

    def test_single(self):
        assert mask_of([2]) == 4

    def test_several(self):
        assert mask_of([0, 1, 3]) == 0b1011

    def test_duplicates_collapse(self):
        assert mask_of([1, 1, 1]) == 2

    def test_generator_input(self):
        assert mask_of(i for i in range(3)) == 7


class TestPopcount:
    def test_empty(self):
        assert popcount(0) == 0

    def test_full(self):
        assert popcount(0b1111) == 4

    @given(st.integers(min_value=0, max_value=2**40))
    def test_matches_bin(self, mask):
        assert popcount(mask) == bin(mask).count("1")


class TestBits:
    def test_empty(self):
        assert list(bits(0)) == []

    def test_ascending(self):
        assert list(bits(0b10110)) == [1, 2, 4]

    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_roundtrip(self, indices):
        assert set(bits(mask_of(indices))) == indices


class TestIterSubsets:
    def test_empty_mask(self):
        assert list(iter_subsets(0)) == [0]

    def test_counts(self):
        assert len(list(iter_subsets(0b111))) == 8

    def test_all_are_subsets(self):
        mask = 0b10110
        for sub in iter_subsets(mask):
            assert sub & mask == sub

    def test_distinct(self):
        subs = list(iter_subsets(0b1101))
        assert len(subs) == len(set(subs)) == 8

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    def test_cardinality(self, mask):
        assert len(list(iter_subsets(mask))) == 2 ** popcount(mask)


class TestProperNonemptySubsets:
    def test_empty_mask(self):
        assert list(iter_proper_nonempty_subsets(0)) == []

    def test_singleton_mask(self):
        assert list(iter_proper_nonempty_subsets(0b100)) == []

    def test_pair(self):
        assert sorted(iter_proper_nonempty_subsets(0b11)) == [1, 2]

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_excludes_trivial(self, mask):
        subs = list(iter_proper_nonempty_subsets(mask))
        assert 0 not in subs
        assert mask not in subs
        expected = max(2 ** popcount(mask) - 2, 0)
        assert len(subs) == expected
